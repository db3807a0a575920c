//! Model-based identification of dominant congested links — a full Rust
//! reproduction of Wei, Wang, Towsley & Kurose (ACM IMC 2003 / IEEE ToN
//! 2011).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`identification`] (`dcl-core`) — the paper's method: discretisation,
//!   virtual-queuing-delay estimation, SDCL/WDCL hypothesis tests, and
//!   maximum-queuing-delay bounds; plus the streaming engine, whose state
//!   is its checkpoint;
//! * [`netsim`] — the discrete-event network simulator (ns-2 substitute);
//! * [`mmhd`] / [`hmm`] — the two statistical models with EM inference;
//! * [`losspair`] — the loss-pair baseline;
//! * [`clocksync`] — one-way-delay skew removal (`dcl_core::clocksync`),
//!   the measurement step behind the wide-area settings of Figs. 12–14;
//! * [`faults`] — the deterministic, seeded measurement-impairment layer
//!   (burst loss, reordering, duplication, clock drift, delay spikes,
//!   truncation, corruption) behind the robustness harness;
//! * [`fleet`] — fleet-scale identification: many-path pipelines
//!   and streaming engines, one deterministic pool item per path;
//! * [`probnum`] — shared probability/numerics utilities and the shared EM fitter;
//! * [`parallel`] — the deterministic fork-join execution layer behind the
//!   EM restart, duration-sweep and scenario-grid parallelism;
//! * [`metrics`] — the telemetry: a metrics registry and a structured
//!   event stream (spans, verdict provenance, counters) behind one
//!   zero-overhead gate with a deterministic parallel merge, exported as
//!   JSONL and Chrome-trace span trees.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench/src/bin/` for the per-table/figure experiment harness.
//! Its scenario catalogue (`dcl_bench::settings`) declares every paper
//! setting once, the synthetic wide-area paths of Figs. 12–14 (the
//! PlanetLab substitute, with unsynchronised receiver clocks) included.

#![forbid(unsafe_code)]

pub use dcl_core as identification;
pub use dcl_core::clocksync;
pub use dcl_faults as faults;
pub use dcl_fleet as fleet;
pub use dcl_hmm as hmm;
pub use dcl_losspair as losspair;
pub use dcl_metrics as metrics;
pub use dcl_mmhd as mmhd;
pub use dcl_netsim as netsim;
pub use dcl_parallel as parallel;
pub use dcl_probnum as probnum;
