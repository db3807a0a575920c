//! Batch equivalence of the streaming engine: a [`StreamingIdentifier`]
//! whose window covers the entire trace must reproduce the batch
//! `identify()` report **bit for bit** (`assert_eq!` on the reports, whose
//! `==` compares every float by `f64::to_bits`) for both model backends. The streaming path *is* the
//! batch path — `identify_fitted` with no warm state on the first window
//! — and this suite pins that structural guarantee as a behavioural one.

mod common;

use common::dominant_trace;
use dominant_congested_links::identification::identify::{
    identify, Identification, IdentifyConfig, ModelKind,
};
use dominant_congested_links::identification::{StreamConfig, StreamingIdentifier, WindowSpec};
use dominant_congested_links::netsim::ProbeTrace;

fn cfg_for(model: ModelKind) -> IdentifyConfig {
    IdentifyConfig {
        model,
        restarts: 2,
        estimate_bound: false,
        ..IdentifyConfig::default()
    }
}

/// Run a full-trace window through the streaming engine and hand back its
/// single report.
fn stream_full_window(trace: &ProbeTrace, cfg: &IdentifyConfig) -> Identification {
    let stream_cfg = StreamConfig {
        window: WindowSpec::Count(trace.len()),
        hop: trace.len(),
        warm_start: true,
        identify: *cfg,
    };
    let updates = StreamingIdentifier::run_trace(trace, stream_cfg);
    assert_eq!(updates.len(), 1, "full-trace window must evaluate once");
    let update = updates.into_iter().next().unwrap();
    assert!(!update.warm, "the first window has no warm state");
    assert_eq!(update.first_seq, 0);
    assert_eq!(update.window_len, trace.len());
    update.result.expect("full trace is usable")
}

#[test]
fn full_window_stream_equals_batch_mmhd() {
    let trace = dominant_trace(3_000);
    let cfg = cfg_for(ModelKind::Mmhd { num_hidden: 2 });
    let batch = identify(&trace, &cfg).expect("usable trace");
    let streamed = stream_full_window(&trace, &cfg);
    assert_eq!(streamed, batch, "mmhd full-window");
}

#[test]
fn full_window_stream_equals_batch_hmm() {
    let trace = dominant_trace(3_000);
    let cfg = cfg_for(ModelKind::Hmm { num_states: 2 });
    let batch = identify(&trace, &cfg).expect("usable trace");
    let streamed = stream_full_window(&trace, &cfg);
    assert_eq!(streamed, batch, "hmm full-window");
}

/// The equivalence includes the fine-discretisation bound stage: with
/// `estimate_bound` on, the per-window bound re-fit is the same cold
/// start the batch pipeline runs.
#[test]
fn full_window_stream_equals_batch_with_bounds() {
    let trace = dominant_trace(2_000);
    let cfg = IdentifyConfig {
        estimate_bound: true,
        ..cfg_for(ModelKind::Mmhd { num_hidden: 2 })
    };
    let batch = identify(&trace, &cfg).expect("usable trace");
    let streamed = stream_full_window(&trace, &cfg);
    assert_eq!(streamed.bound_basic, batch.bound_basic, "basic bound");
    assert_eq!(
        streamed.bound_heuristic, batch.bound_heuristic,
        "heuristic bound"
    );
    assert_eq!(streamed, batch, "mmhd full-window with bounds");
}

/// A window larger than the stream never comes due; `flush` must then
/// evaluate the whole buffered trace — again bit-identical to batch.
#[test]
fn oversized_window_flush_equals_batch() {
    let trace = dominant_trace(1_500);
    let cfg = cfg_for(ModelKind::Mmhd { num_hidden: 2 });
    let batch = identify(&trace, &cfg).expect("usable trace");
    let stream_cfg = StreamConfig {
        window: WindowSpec::Count(10 * trace.len()),
        hop: 100 * trace.len(),
        warm_start: true,
        identify: cfg,
    };
    let mut engine = StreamingIdentifier::new(stream_cfg, trace.base_delay, trace.interval);
    assert!(engine.push_chunk(&trace.records).is_empty());
    let update = engine.flush().expect("flush evaluates the tail");
    let streamed = update.result.expect("full trace is usable");
    assert_eq!(streamed, batch, "oversized-window flush");
}
