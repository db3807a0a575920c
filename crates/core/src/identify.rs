//! The end-to-end identification pipeline.
//!
//! [`identify`] is the whole method in one call: discretise the probe trace
//! (§V-A), fit the model and extract the virtual queuing delay distribution
//! (§V-B), run the SDCL- and WDCL-Tests (§IV-A), and — when a dominant
//! congested link is found — bound its maximum queuing delay (§IV-B),
//! re-fitting with a finer discretisation for the bound exactly as the
//! paper does (`M = 5` for identification, `M = 40` for the bound).

use crate::bound::{heuristic_upper_bound, upper_bound_from_cdf, HeuristicParams};
use crate::discretize::Discretizer;
use crate::estimators::{estimate_fitted, EstimateError, FitStats, FittedModel};
use crate::hyptest::{sdcl_test, wdcl_test, TestOutcome, WdclParams};
use dcl_netsim::time::Dur;
use dcl_netsim::trace::{ProbeTrace, TraceSanitation};
use dcl_probnum::em::EmOptions;
use dcl_probnum::{FitError, Pmf};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which model drives the estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Markov model with a hidden dimension (the paper's recommendation).
    Mmhd {
        /// Hidden components `N`.
        num_hidden: usize,
    },
    /// Hidden Markov model.
    Hmm {
        /// Hidden states `N`.
        num_states: usize,
    },
}

/// Pipeline configuration; [`IdentifyConfig::default`] reproduces the
/// paper's ns settings.
#[derive(Debug, Clone, Copy)]
pub struct IdentifyConfig {
    /// Delay symbols for identification (`M = 5` in the paper).
    pub num_symbols: usize,
    /// Delay symbols for the max-queuing-delay bound (`M = 40`), used only
    /// when `estimate_bound` is set.
    pub bound_symbols: usize,
    /// Whether to run the second, finer fit for the bound.
    pub estimate_bound: bool,
    /// Model choice.
    pub model: ModelKind,
    /// WDCL parameters `(ε₁, ε₂)`.
    pub wdcl: WdclParams,
    /// Numerical dust threshold for the tests.
    pub numeric_floor: f64,
    /// Known propagation delay, if any; otherwise the minimum observed
    /// delay is used (§V-A).
    pub known_floor: Option<Dur>,
    /// EM convergence tolerance.
    pub em_tol: f64,
    /// EM iteration cap.
    pub em_max_iters: usize,
    /// EM initialisation seed.
    pub seed: u64,
    /// EM random restarts.
    pub restarts: usize,
    /// Worker threads for the EM restarts. `None` (the default) resolves
    /// from the `DCL_PARALLELISM` / `RAYON_NUM_THREADS` environment
    /// variables or the available cores; `Some(1)` pins the exact serial
    /// path. The identification result is bitwise identical at every
    /// setting.
    pub parallelism: Option<usize>,
    /// Minimum lost probes required to attempt estimation. A loss-delay
    /// distribution inferred from a single loss cannot support a verdict;
    /// below this the pipeline returns [`IdentifyError::TooFewLosses`]
    /// instead of an overconfident answer.
    pub min_losses: usize,
    /// Bounded-work EM budget ([`dcl_probnum::em::EmBudget`]). `None` (the
    /// default) fits to convergence exactly as before; `Some` caps each
    /// window's total EM iterations and guard trips, and a fit clipped by
    /// the budget yields a best-effort verdict flagged
    /// [`Provenance::degraded`] instead of an error.
    pub budget: Option<dcl_probnum::em::EmBudget>,
}

impl Default for IdentifyConfig {
    fn default() -> Self {
        let em = EmOptions::<()>::default();
        IdentifyConfig {
            num_symbols: 5,
            bound_symbols: 40,
            estimate_bound: true,
            model: ModelKind::Mmhd { num_hidden: 2 },
            wdcl: WdclParams::paper_ns(),
            numeric_floor: 0.01,
            known_floor: None,
            em_tol: em.tol,
            em_max_iters: em.max_iters,
            seed: em.seed,
            restarts: 6,
            parallelism: None,
            min_losses: 2,
            budget: None,
        }
    }
}

impl IdentifyConfig {
    /// The EM options of one fit over `num_symbols` delay symbols with
    /// `restarts` random restarts: the one translation from this
    /// configuration to the EM schedule. `N` comes from [`Self::model`]
    /// and the model family's settings are their defaults.
    pub fn em_options<X: Default>(&self, num_symbols: usize, restarts: usize) -> EmOptions<X> {
        let num_hidden = match self.model {
            ModelKind::Mmhd { num_hidden } => num_hidden,
            ModelKind::Hmm { num_states } => num_states,
        };
        EmOptions {
            num_hidden,
            num_symbols,
            tol: self.em_tol,
            max_iters: self.em_max_iters,
            seed: self.seed,
            restarts,
            parallelism: self.parallelism,
            budget: self.budget,
            settings: X::default(),
        }
    }
}

/// Overall verdict of the identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The SDCL-Test accepted: a strongly dominant congested link exists.
    StronglyDominant,
    /// Only the WDCL-Test accepted: a weakly dominant congested link with
    /// the configured `(ε₁, ε₂)` exists.
    WeaklyDominant,
    /// Both tests rejected: no dominant congested link.
    NoDominant,
}

impl Verdict {
    /// Stable kebab-case tag naming the verdict, as the
    /// `verdict-provenance` and `verdict-transition` events carry it.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::StronglyDominant => "strongly-dominant",
            Verdict::WeaklyDominant => "weakly-dominant",
            Verdict::NoDominant => "no-dominant",
        }
    }

    /// The verdict of the two hypothesis tests' outcomes: strongly
    /// dominant when the SDCL-Test accepts, else weakly dominant when the
    /// WDCL-Test accepts, else no dominant link.
    pub fn from_tests(sdcl_accepted: bool, wdcl_accepted: bool) -> Verdict {
        if sdcl_accepted {
            Verdict::StronglyDominant
        } else if wdcl_accepted {
            Verdict::WeaklyDominant
        } else {
            Verdict::NoDominant
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::StronglyDominant => write!(f, "strongly dominant congested link"),
            Verdict::WeaklyDominant => write!(f, "weakly dominant congested link"),
            Verdict::NoDominant => write!(f, "no dominant congested link"),
        }
    }
}

/// How a verdict was reached: the facts of the winning model fit and
/// the signed margins of the two hypothesis tests. Attached to every
/// [`Identification`] (batch, streaming and fleet) so a verdict can be
/// explained after the fact without re-running the pipeline.
///
/// Pure telemetry: every field is copied out of values the pipeline
/// already computed, so carrying it is bitwise-invisible to the
/// numerics. Window and path context deliberately live only on the
/// `verdict-provenance` *event* — the report itself stays independent
/// of where the trace came from, which is what pins streaming-vs-batch
/// and fleet-vs-scalar bit-equality. `==` compares the floats by their
/// bits.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Model family that produced the distribution ("hmm" or "mmhd").
    pub model: &'static str,
    /// Is the verdict's fit the warm trajectory: did the previous
    /// window's model, offered as a seed, survive its guarded attempt?
    /// `false` for a cold fit, and for a seed that was refused or tripped
    /// so that the cold schedule made the fit.
    pub warm: bool,
    /// Configured EM restarts for the (cold) fit schedule.
    pub restarts: usize,
    /// Iterations of the winning EM trajectory.
    pub iterations: usize,
    /// Did the winning trajectory converge within tolerance?
    pub converged: bool,
    /// Numerical guard trips across the whole fit.
    pub guard_trips: usize,
    /// Final log-likelihood of the winning model.
    pub log_likelihood: f64,
    /// Signed SDCL margin `F(2d*) − threshold`: positive when the test
    /// accepted, negative by how much it lost otherwise.
    pub sdcl_margin: f64,
    /// Signed WDCL margin `F(2d*) − threshold`.
    pub wdcl_margin: f64,
    /// Was the fit clipped by an [`IdentifyConfig::budget`]? A degraded
    /// verdict is best-effort: computed from the best model the budget
    /// allowed rather than a converged fit.
    pub degraded: bool,
}

/// Where an identification ran: fleet path and/or streaming window
/// coordinates, attached to the `verdict-provenance` event (never to
/// the [`Identification`] itself — see [`Provenance`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProvCtx {
    /// Fleet path index.
    pub path: Option<u64>,
    /// Streaming window index.
    pub window: Option<u64>,
    /// First sequence number in the streaming window.
    pub first_seq: Option<u64>,
    /// Last sequence number in the streaming window.
    pub last_seq: Option<u64>,
}

/// Full identification report.
///
/// `==` is bit equality: every `f64` (the PMF's mass, both test
/// outcomes, the loss rate and the provenance) is compared by
/// `f64::to_bits`, so `0.0` and `-0.0` differ and a NaN equals itself.
/// This is the one meaning of "the same report" that the determinism
/// contract pins: across thread counts, batch and streaming, fleet and
/// single path, and a checkpoint's continuation.
#[derive(Debug, Clone)]
pub struct Identification {
    /// The verdict.
    pub verdict: Verdict,
    /// Estimated virtual queuing delay PMF (identification discretisation).
    pub pmf: Pmf,
    /// SDCL-Test outcome.
    pub sdcl: TestOutcome,
    /// WDCL-Test outcome at the configured parameters.
    pub wdcl: TestOutcome,
    /// Number of probes in the trace.
    pub num_probes: usize,
    /// Probe loss rate.
    pub loss_rate: f64,
    /// Bin width of the identification discretisation.
    pub bin_width: Dur,
    /// Basic upper bound on the dominant link's maximum queuing delay
    /// (only when a dominant link was accepted and bounds were requested).
    pub bound_basic: Option<Dur>,
    /// Connected-component heuristic bound on the finer discretisation.
    pub bound_heuristic: Option<Dur>,
    /// The repairs sanitisation made to the trace before this verdict
    /// (records re-sorted, duplicates and corrupt records dropped); all
    /// zero for a clean trace.
    pub sanitation: TraceSanitation,
    /// How the verdict was reached: fit facts and test margins.
    pub provenance: Provenance,
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        let Provenance {
            model,
            warm,
            restarts,
            iterations,
            converged,
            guard_trips,
            log_likelihood,
            sdcl_margin,
            wdcl_margin,
            degraded,
        } = self;
        *model == other.model
            && *warm == other.warm
            && *restarts == other.restarts
            && *iterations == other.iterations
            && *converged == other.converged
            && *guard_trips == other.guard_trips
            && log_likelihood.to_bits() == other.log_likelihood.to_bits()
            && sdcl_margin.to_bits() == other.sdcl_margin.to_bits()
            && wdcl_margin.to_bits() == other.wdcl_margin.to_bits()
            && *degraded == other.degraded
    }
}

impl PartialEq for Identification {
    fn eq(&self, other: &Self) -> bool {
        let Identification {
            verdict,
            pmf,
            sdcl,
            wdcl,
            num_probes,
            loss_rate,
            bin_width,
            bound_basic,
            bound_heuristic,
            sanitation,
            provenance,
        } = self;
        *verdict == other.verdict
            && *pmf == other.pmf
            && *sdcl == other.sdcl
            && *wdcl == other.wdcl
            && *num_probes == other.num_probes
            && loss_rate.to_bits() == other.loss_rate.to_bits()
            && *bin_width == other.bin_width
            && *bound_basic == other.bound_basic
            && *bound_heuristic == other.bound_heuristic
            && *sanitation == other.sanitation
            && *provenance == other.provenance
    }
}

/// Why identification could not run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdentifyError {
    /// The trace has no probes at all.
    EmptyTrace,
    /// No probe was lost: the virtual queuing delay of losses is undefined
    /// (and neither is a dominant *congested* link).
    NoLosses,
    /// Every probe was lost, or delays carry no variation to discretise.
    DegenerateDelays,
    /// Fewer losses than [`IdentifyConfig::min_losses`]: too little
    /// evidence to estimate a loss-delay distribution.
    TooFewLosses {
        /// Losses in the trace.
        losses: usize,
        /// The configured minimum.
        required: usize,
    },
    /// Sanitisation had to drop so many records (duplicates, corruption)
    /// that the remainder cannot be trusted as a measurement.
    TraceInconsistent {
        /// Records dropped by sanitisation.
        dropped: usize,
        /// Records remaining.
        kept: usize,
    },
    /// The model fit failed despite the guarded retries; the typed cause
    /// is attached.
    EstimationFailed(FitError),
}

impl fmt::Display for IdentifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentifyError::EmptyTrace => write!(f, "probe trace is empty"),
            IdentifyError::NoLosses => write!(f, "trace contains no probe losses"),
            IdentifyError::DegenerateDelays => {
                write!(
                    f,
                    "trace delays are degenerate (no variation or no deliveries)"
                )
            }
            IdentifyError::TooFewLosses { losses, required } => {
                write!(f, "only {losses} losses in the trace (need {required})")
            }
            IdentifyError::TraceInconsistent { dropped, kept } => {
                write!(
                    f,
                    "trace is inconsistent: sanitisation dropped {dropped} records, kept {kept}"
                )
            }
            IdentifyError::EstimationFailed(e) => write!(f, "estimation failed: {e}"),
        }
    }
}

impl IdentifyError {
    /// Stable kebab-case tag naming the variant, used to key per-error
    /// counter families (`fleet.errors.*`) without string formatting.
    pub fn tag(&self) -> &'static str {
        match self {
            IdentifyError::EmptyTrace => "empty-trace",
            IdentifyError::NoLosses => "no-losses",
            IdentifyError::DegenerateDelays => "degenerate-delays",
            IdentifyError::TooFewLosses { .. } => "too-few-losses",
            IdentifyError::TraceInconsistent { .. } => "trace-inconsistent",
            IdentifyError::EstimationFailed(_) => "estimation-failed",
        }
    }
}

impl std::error::Error for IdentifyError {}

/// Map an estimator failure to the pipeline error taxonomy.
fn estimate_error(e: EstimateError) -> IdentifyError {
    match e {
        EstimateError::NoData | EstimateError::NoLosses | EstimateError::NoLossPairs => {
            IdentifyError::NoLosses
        }
        EstimateError::Fit(fe) => IdentifyError::EstimationFailed(fe),
    }
}

/// One model fit over `disc`'s symbols, with the EM schedule of
/// [`IdentifyConfig::em_options`] and `restarts` random restarts. The
/// coarse fit passes the configured restarts and, when streaming, the
/// previous window's model; the bound re-fit passes the fine discretiser,
/// at most two restarts and no warm state. The warm model is used only
/// when its family matches the configuration — warm state from a
/// different family is silently ignored (cold start).
fn fit_model(
    trace: &ProbeTrace,
    disc: &Discretizer,
    cfg: &IdentifyConfig,
    restarts: usize,
    warm: Option<&FittedModel>,
) -> Result<(Pmf, FittedModel, FitStats), EstimateError> {
    let m = disc.num_symbols();
    match cfg.model {
        ModelKind::Mmhd { .. } => {
            let init = match warm {
                Some(FittedModel::Mmhd(prev)) => Some(prev),
                _ => None,
            };
            let (pmf, model, stats) =
                estimate_fitted(trace, disc, &cfg.em_options(m, restarts), init)?;
            Ok((pmf, FittedModel::Mmhd(model), stats))
        }
        ModelKind::Hmm { .. } => {
            let init = match warm {
                Some(FittedModel::Hmm(prev)) => Some(prev),
                _ => None,
            };
            let (pmf, model, stats) =
                estimate_fitted(trace, disc, &cfg.em_options(m, restarts), init)?;
            Ok((pmf, FittedModel::Hmm(model), stats))
        }
    }
}

/// Run the full pipeline on a probe trace.
///
/// Malformed traces are sanitised first (re-sorted, duplicates and
/// corrupt records dropped); the repairs surface as
/// [`Identification::sanitation`]. A clean trace passes through
/// sanitisation bitwise untouched, so clean-trace results are identical
/// to the unsanitised pipeline.
pub fn identify(trace: &ProbeTrace, cfg: &IdentifyConfig) -> Result<Identification, IdentifyError> {
    identify_fitted(trace, cfg, None, ProvCtx::default()).map(|(report, _)| report)
}

/// [`identify`] extended for the streaming engine: optionally warm-starts
/// the coarse fit from a previous window's parameters and returns the
/// fitted model alongside the report so the next window can reuse it.
///
/// With `warm: None` this *is* the batch pipeline — [`identify`] is a
/// thin wrapper — so a full-trace streaming window is bit-identical to
/// batch by construction. The fine (bound) fit always cold-starts: its
/// discretisation differs, so warm state cannot seed it.
pub(crate) fn identify_fitted(
    trace: &ProbeTrace,
    cfg: &IdentifyConfig,
    warm: Option<&FittedModel>,
    ctx: ProvCtx,
) -> Result<(Identification, FittedModel), IdentifyError> {
    let _span = dcl_metrics::span("identify");
    let prep = prepare_trace(trace, cfg)?;
    let (pmf, model, stats) =
        fit_model(&prep.trace, &prep.disc, cfg, cfg.restarts, warm).map_err(estimate_error)?;
    Ok((finish_identification(prep, pmf, stats, cfg, ctx), model))
}

/// Everything the pipeline derives from a trace *before* the model fit:
/// the sanitised records, the repairs sanitisation made, and the
/// identification discretiser.
struct PreparedTrace {
    trace: ProbeTrace,
    sanitation: TraceSanitation,
    disc: Discretizer,
}

fn prepare_trace(trace: &ProbeTrace, cfg: &IdentifyConfig) -> Result<PreparedTrace, IdentifyError> {
    if trace.is_empty() {
        return Err(IdentifyError::EmptyTrace);
    }
    let (sanitized, san) = trace.sanitized();
    // A trace that loses half its records to repairs is not a
    // measurement any more.
    if san.dropped() * 2 > sanitized.len() + san.dropped() {
        return Err(IdentifyError::TraceInconsistent {
            dropped: san.dropped(),
            kept: sanitized.len(),
        });
    }
    if sanitized.is_empty() {
        return Err(IdentifyError::TraceInconsistent {
            dropped: san.dropped(),
            kept: 0,
        });
    }
    let losses = sanitized.loss_count();
    if losses == 0 {
        return Err(IdentifyError::NoLosses);
    }
    if losses < cfg.min_losses {
        return Err(IdentifyError::TooFewLosses {
            losses,
            required: cfg.min_losses,
        });
    }
    let disc = Discretizer::from_trace(&sanitized, cfg.num_symbols, cfg.known_floor)
        .ok_or(IdentifyError::DegenerateDelays)?;
    Ok(PreparedTrace {
        trace: sanitized,
        sanitation: san,
        disc,
    })
}

/// Everything downstream of the coarse fit: the SDCL/WDCL tests, the
/// verdict, the optional bound re-fit, and the observability records —
/// including the [`Provenance`] and its `verdict-provenance` event.
/// Single choke point shared by the single-trace, streaming and fleet
/// pipelines, so every verdict is explainable the same way.
fn finish_identification(
    prep: PreparedTrace,
    pmf: Pmf,
    stats: FitStats,
    cfg: &IdentifyConfig,
    ctx: ProvCtx,
) -> Identification {
    let PreparedTrace {
        trace,
        sanitation,
        disc,
    } = prep;
    let trace = &trace;
    let cdf = pmf.cdf();
    let sdcl = sdcl_test(&cdf, cfg.numeric_floor);
    let wdcl = wdcl_test(&cdf, cfg.wdcl, cfg.numeric_floor);
    let verdict = Verdict::from_tests(sdcl.accepted, wdcl.accepted);

    let (bound_basic, bound_heuristic) = if cfg.estimate_bound && verdict != Verdict::NoDominant {
        let basic = upper_bound_from_cdf(&cdf, cfg.wdcl.eps1, cfg.numeric_floor, &disc);
        // The paper re-estimates with a finer discretisation (M = 40) to
        // sharpen the bound via the connected-component heuristic. The fine
        // fit is far more expensive per restart and — with the empirical
        // initialisation — much less basin-sensitive than the coarse fit,
        // so it is capped at two restarts. A failed fine fit only costs the
        // sharper bound, never the verdict itself.
        let heuristic = Discretizer::from_trace(trace, cfg.bound_symbols, cfg.known_floor)
            .and_then(|fine| {
                let (fine_pmf, _, _) =
                    fit_model(trace, &fine, cfg, cfg.restarts.min(2), None).ok()?;
                heuristic_upper_bound(&fine_pmf, HeuristicParams::default(), &fine)
            });
        (basic, heuristic)
    } else {
        (None, None)
    };

    let provenance = Provenance {
        model: match cfg.model {
            ModelKind::Mmhd { .. } => "mmhd",
            ModelKind::Hmm { .. } => "hmm",
        },
        warm: stats.warm,
        restarts: cfg.restarts,
        iterations: stats.iterations,
        converged: stats.converged,
        guard_trips: stats.guard_trips,
        log_likelihood: stats.log_likelihood,
        sdcl_margin: sdcl.f_at_2d_star - sdcl.threshold,
        wdcl_margin: wdcl.f_at_2d_star - wdcl.threshold,
        degraded: stats.degraded,
    };
    dcl_metrics::counter("identify.runs", 1);
    if provenance.degraded {
        dcl_metrics::counter("identify.degraded_verdicts", 1);
    }
    dcl_metrics::counter(
        match verdict {
            Verdict::StronglyDominant => "identify.verdict.strongly_dominant",
            Verdict::WeaklyDominant => "identify.verdict.weakly_dominant",
            Verdict::NoDominant => "identify.verdict.no_dominant",
        },
        1,
    );
    dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::VerdictProvenance {
        verdict: verdict.tag().to_string(),
        model: provenance.model.to_string(),
        warm: provenance.warm,
        restarts: provenance.restarts,
        iterations: provenance.iterations,
        converged: provenance.converged,
        guard_trips: provenance.guard_trips,
        log_likelihood: provenance.log_likelihood,
        degraded: provenance.degraded,
        sdcl_accepted: sdcl.accepted,
        sdcl_margin: provenance.sdcl_margin,
        sdcl_d_star: sdcl.d_star,
        wdcl_accepted: wdcl.accepted,
        wdcl_margin: provenance.wdcl_margin,
        wdcl_d_star: wdcl.d_star,
        num_probes: trace.len(),
        loss_rate: trace.loss_rate(),
        bin_width_us: disc.bin_width().as_nanos() / 1_000,
        path: ctx.path,
        window: ctx.window,
        first_seq: ctx.first_seq,
        last_seq: ctx.last_seq,
    });

    Identification {
        verdict,
        pmf,
        sdcl,
        wdcl,
        num_probes: trace.len(),
        loss_rate: trace.loss_rate(),
        bin_width: disc.bin_width(),
        bound_basic,
        bound_heuristic,
        sanitation,
        provenance,
    }
}

/// [`identify`] with fleet path attribution on the
/// `verdict-provenance` event; the report is bitwise identical to
/// [`identify`].
pub fn identify_path(
    trace: &ProbeTrace,
    cfg: &IdentifyConfig,
    path: u64,
) -> Result<Identification, IdentifyError> {
    identify_fitted(
        trace,
        cfg,
        None,
        ProvCtx {
            path: Some(path),
            ..ProvCtx::default()
        },
    )
    .map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{HmmEstimator, MmhdEstimator, VqdEstimator};
    use dcl_netsim::packet::ProbeStamp;
    use dcl_netsim::sim::ProbeRecord;
    use dcl_netsim::time::Time;

    /// Synthetic dominant-congested-link trace: losses occur only in
    /// high-delay bursts whose delays sit near 160 ms; quiet phases near
    /// 25 ms.
    fn dominant_trace(n: usize) -> ProbeTrace {
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let sent = Time::from_secs(i as f64 * 0.02);
            let phase = i % 25;
            let mut stamp = ProbeStamp::new(i as u64, None, sent);
            let arrival = if phase == 19 || phase == 21 {
                stamp.loss_hop = Some(1);
                None
            } else if phase >= 17 {
                // Congestion bursts surrounding the losses: ~160-185 ms.
                Some(sent + Dur::from_millis(165.0 + (phase % 5) as f64 * 5.0))
            } else {
                // Quiet delays sweep the lower half of the range, so all
                // low/middle symbols are genuinely visited.
                Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
            };
            records.push(ProbeRecord { stamp, arrival });
        }
        ProbeTrace {
            records,
            base_delay: Dur::from_millis(22.0),
            interval: Dur::from_millis(20.0),
        }
    }

    /// Two distinct congestion levels with losses in both — no dominant
    /// link.
    fn two_link_trace(n: usize) -> ProbeTrace {
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let sent = Time::from_secs(i as f64 * 0.02);
            let phase = i % 40;
            let mut stamp = ProbeStamp::new(i as u64, None, sent);
            // Link A bursts: delays ~60 ms with losses; link B bursts:
            // delays ~380 ms with losses.
            let arrival = if phase == 10 || phase == 30 {
                stamp.loss_hop = Some(if phase == 10 { 1 } else { 3 });
                None
            } else if (8..13).contains(&phase) {
                Some(sent + Dur::from_millis(60.0 + (phase % 3) as f64 * 4.0))
            } else if (28..33).contains(&phase) {
                Some(sent + Dur::from_millis(380.0 + (phase % 3) as f64 * 6.0))
            } else {
                Some(sent + Dur::from_millis(25.0 + ((i * 13) % 120) as f64))
            };
            records.push(ProbeRecord { stamp, arrival });
        }
        ProbeTrace {
            records,
            base_delay: Dur::from_millis(22.0),
            interval: Dur::from_millis(20.0),
        }
    }

    #[test]
    fn accepts_dominant_link_and_bounds_its_queue() {
        let t = dominant_trace(4000);
        let report = identify(&t, &IdentifyConfig::default()).unwrap();
        assert_ne!(report.verdict, Verdict::NoDominant, "{report:?}");
        // Losses happen at ~160 ms delays: the bound must land in a
        // plausible band above ~120 ms and below the max observed ~185 ms.
        let bound = report.bound_basic.expect("bound for accepted link");
        assert!(
            bound >= Dur::from_millis(100.0) && bound <= Dur::from_millis(200.0),
            "bound {bound}"
        );
        if let Some(h) = report.bound_heuristic {
            assert!(h >= Dur::from_millis(100.0) && h <= Dur::from_millis(200.0));
        }
    }

    #[test]
    fn rejects_two_comparable_lossy_links() {
        let t = two_link_trace(8000);
        let report = identify(&t, &IdentifyConfig::default()).unwrap();
        assert_eq!(report.verdict, Verdict::NoDominant, "{report:?}");
        assert!(report.bound_basic.is_none());
    }

    #[test]
    fn hmm_backend_runs_too() {
        let t = dominant_trace(2000);
        let cfg = IdentifyConfig {
            model: ModelKind::Hmm { num_states: 2 },
            estimate_bound: false,
            ..IdentifyConfig::default()
        };
        let report = identify(&t, &cfg).unwrap();
        assert_eq!(report.num_probes, 2000);
        assert!(report.loss_rate > 0.0);
    }

    #[test]
    fn bound_refit_equals_a_direct_fine_fit() {
        // The bound is the connected-component heuristic on a cold fit of
        // the sanitised trace at `bound_symbols`, with at most two restarts
        // and every other EM setting at its default. The direct fit spells
        // the estimator out, independently of `IdentifyConfig::em_options`.
        let t = dominant_trace(2000);
        let (sanitized, _) = t.sanitized();
        for model in [
            ModelKind::Mmhd { num_hidden: 2 },
            ModelKind::Hmm { num_states: 2 },
        ] {
            let cfg = IdentifyConfig {
                model,
                ..IdentifyConfig::default()
            };
            let report = identify(&t, &cfg).unwrap();
            assert_ne!(report.verdict, Verdict::NoDominant, "{model:?}: {report:?}");
            let fine =
                Discretizer::from_trace(&sanitized, cfg.bound_symbols, cfg.known_floor).unwrap();
            let direct: Box<dyn VqdEstimator> = match model {
                ModelKind::Mmhd { num_hidden } => Box::new(MmhdEstimator {
                    num_hidden,
                    restarts: cfg.restarts.min(2),
                    ..Default::default()
                }),
                ModelKind::Hmm { num_states } => Box::new(HmmEstimator {
                    num_states,
                    restarts: cfg.restarts.min(2),
                }),
            };
            let fine_pmf = direct.estimate(&sanitized, &fine).unwrap();
            let expected = heuristic_upper_bound(&fine_pmf, HeuristicParams::default(), &fine);
            assert!(expected.is_some(), "{model:?}");
            assert_eq!(report.bound_heuristic, expected, "{model:?}");
        }
    }

    #[test]
    fn error_cases() {
        let empty = ProbeTrace {
            records: vec![],
            base_delay: Dur::ZERO,
            interval: Dur::from_millis(20.0),
        };
        assert_eq!(
            identify(&empty, &IdentifyConfig::default()),
            Err(IdentifyError::EmptyTrace)
        );

        let mut lossless = dominant_trace(100);
        lossless.records.retain(|r| r.delivered());
        assert_eq!(
            identify(&lossless, &IdentifyConfig::default()),
            Err(IdentifyError::NoLosses)
        );

        let mut all_lost = dominant_trace(100);
        for r in &mut all_lost.records {
            r.arrival = None;
            r.stamp.loss_hop = Some(0);
        }
        assert_eq!(
            identify(&all_lost, &IdentifyConfig::default()),
            Err(IdentifyError::DegenerateDelays)
        );
    }

    #[test]
    fn every_identification_carries_populated_provenance() {
        let t = dominant_trace(1500);
        let cfg = IdentifyConfig {
            estimate_bound: false,
            ..IdentifyConfig::default()
        };
        let report = identify(&t, &cfg).unwrap();
        let p = &report.provenance;
        assert_eq!(p.model, "mmhd");
        assert!(!p.warm, "batch identification never warm-starts");
        assert_eq!(p.restarts, cfg.restarts);
        assert!(p.iterations > 0);
        assert!(p.log_likelihood.is_finite());
        // The signed margins agree with the test outcomes: accepted
        // exactly when `F(2d*) − threshold ≥ 0`.
        assert_eq!(p.sdcl_margin >= 0.0, report.sdcl.accepted);
        assert_eq!(p.wdcl_margin >= 0.0, report.wdcl.accepted);
        // Path attribution changes the event stream, never the report.
        let on_path = identify_path(&t, &cfg, 7).unwrap();
        assert_eq!(on_path, report);
        let hmm = identify(
            &t,
            &IdentifyConfig {
                model: ModelKind::Hmm { num_states: 2 },
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(hmm.provenance.model, "hmm");
    }

    #[test]
    fn equality_compares_float_bits() {
        let cfg = IdentifyConfig {
            estimate_bound: false,
            restarts: 1,
            ..IdentifyConfig::default()
        };
        let mut zero = identify(&dominant_trace(1500), &cfg).unwrap();
        zero.provenance.sdcl_margin = 0.0;
        let mut negative_zero = zero.clone();
        negative_zero.provenance.sdcl_margin = -0.0;
        assert_ne!(zero, negative_zero);
        let mut nan = zero;
        nan.provenance.log_likelihood = f64::NAN;
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn known_floor_changes_little_on_long_traces() {
        // The paper reports that using min observed delay for the
        // propagation delay is a good approximation (§V-A, Fig. 14).
        let t = dominant_trace(4000);
        let unknown = identify(&t, &IdentifyConfig::default()).unwrap();
        let known = identify(
            &t,
            &IdentifyConfig {
                known_floor: Some(t.base_delay),
                ..IdentifyConfig::default()
            },
        )
        .unwrap();
        assert_eq!(unknown.verdict, known.verdict);
    }
}
