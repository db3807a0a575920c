//! Model-based identification of dominant congested links.
//!
//! This crate is the paper's primary contribution (Wei, Wang, Towsley,
//! Kurose — ACM IMC 2003 / IEEE ToN 2011): decide, from one-way periodic
//! probe measurements between two end hosts, whether the path has a
//! *dominant congested link* — one responsible for (almost) all losses
//! whose maximum queuing delay dominates the rest of the path — and, if so,
//! bound that link's maximum queuing delay.
//!
//! The pipeline (see [`identify::identify`]):
//!
//! 1. [`discretize`] the one-way delays into `M` symbols; a loss is a delay
//!    with a *missing value*;
//! 2. estimate the virtual queuing delay distribution of the lost probes
//!    with one of the [`estimators`] (MMHD by default; HMM, the loss-pair
//!    baseline and simulator ground truth are available for comparison);
//! 3. run the [`hyptest`] SDCL/WDCL hypothesis tests on its CDF;
//! 4. on acceptance, [`bound`] the dominant link's maximum queuing delay.
//!
//! Delays stamped by an unsynchronised receiver clock first have its skew
//! removed with [`clocksync`], the convex-hull fit of Zhang, Liu & Xia.
//!
//! [`localize`](mod@localize) extends the method with the paper's stated
//! future work: binary-searching path prefixes to pinpoint *which* link is
//! dominant.
//!
//! # Example
//!
//! ```
//! use dcl_core::identify::{identify, IdentifyConfig, Verdict};
//! use dcl_netsim::scenarios::{HopSpec, PathScenario, PathScenarioConfig, TrafficMix};
//! use dcl_netsim::time::Dur;
//!
//! // Simulate a path whose first hop is congested and lossy.
//! let hops = vec![
//!     HopSpec::droptail(1_000_000, 20_000, TrafficMix { ftp_flows: 3, ..TrafficMix::none() }),
//!     HopSpec::droptail(10_000_000, 80_000, TrafficMix::none()),
//! ];
//! let mut sc = PathScenario::build(&PathScenarioConfig::new(hops, 7));
//! let trace = sc.run(Dur::from_secs(10.0), Dur::from_secs(60.0));
//!
//! let report = identify(&trace, &IdentifyConfig::default()).expect("usable trace");
//! assert_ne!(report.verdict, Verdict::NoDominant);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod clocksync;
pub mod discretize;
pub mod estimators;
pub mod hyptest;
pub mod identify;
pub mod localize;
pub mod report;
pub mod stream;
pub mod sweep;

pub use discretize::Discretizer;
pub use estimators::{
    ground_truth_verdict, EstimateError, GroundTruth, HmmEstimator, LossPairEstimator,
    MmhdEnsemble, MmhdEstimator, VqdEstimator,
};
pub use hyptest::{sdcl_test, wdcl_test, TestOutcome, WdclParams};
pub use identify::{
    identify, identify_path, Identification, IdentifyConfig, IdentifyError, ModelKind, Provenance,
    Verdict,
};
pub use localize::{localize, Localization, PrefixProber, SimulatedPrefixProber};
pub use stream::{
    CheckpointError, StreamConfig, StreamUpdate, StreamingCheckpoint, StreamingIdentifier,
    Transition, WindowSpec, CHECKPOINT_VERSION,
};
pub use sweep::{duration_sweep, SweepConfig, SweepPoint, SweepResult};
