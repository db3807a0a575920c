//! The fleet equivalence contract: `Fleet::identify_all` — one pool item
//! per path, on any number of threads — must produce per path a report *bitwise
//! identical* to running the single-path pipeline on that trace alone.
//! `assert_eq!` on the reports compares every float by `f64::to_bits`
//! (the report types' `==`): the pool changes which thread
//! fits a path and in what order, but must never change a single
//! floating-point operation within one path's fit.

mod common;

use common::Pattern;
use dominant_congested_links::fleet::{Fleet, FleetConfig, StreamingFleet};
use dominant_congested_links::identification::identify::{identify, IdentifyConfig};
use dominant_congested_links::identification::{StreamConfig, WindowSpec};
use dominant_congested_links::metrics::{self, obs::Event};
use dominant_congested_links::netsim::sim::ProbeRecord;
use dominant_congested_links::netsim::time::Dur;

fn quick_identify_cfg() -> IdentifyConfig {
    IdentifyConfig {
        estimate_bound: false,
        restarts: 2,
        parallelism: Some(1),
        ..IdentifyConfig::default()
    }
}

/// Parallel `identify_all` over a mixed fleet — usable, unusable, and
/// differently sized traces — reproduces the
/// single-path pipeline bit for bit on every path, errors in place.
#[test]
fn fleet_identify_all_matches_scalar_identify_bitwise() {
    // The dominant pattern, `offset` shifting the phase so paths differ.
    let dominant = |n, offset| {
        common::trace(n, |_| Pattern::Dominant {
            burst_ms: 165.0,
            offset,
        })
    };
    let traces = [
        dominant(1_200, 0),
        dominant(1_200, 11),
        common::trace(400, |_| Pattern::Lossless),
        dominant(900, 5),
        dominant(1_200, 19),
    ];
    let cfg = FleetConfig {
        identify: quick_identify_cfg(),
        parallelism: Some(2),
    };
    let mut fleet = Fleet::new(cfg);
    for (i, t) in traces.iter().enumerate() {
        fleet.push(format!("path-{i}"), t.clone());
    }
    let report = fleet.identify_all();
    assert_eq!(report.verdicts.len(), traces.len());
    assert_eq!(report.summary.paths, traces.len());
    assert_eq!(report.summary.unidentifiable, 1);
    for (i, trace) in traces.iter().enumerate() {
        assert_eq!(
            report.verdicts[i].result,
            identify(trace, &cfg.identify),
            "fleet path {i}"
        );
    }
}

/// A streaming fleet's `verdict-transition` events name their path: two
/// paths fed the same records emit the same transitions, told apart only
/// by `path`.
#[test]
fn streaming_fleet_transitions_carry_their_path() {
    const PER: usize = 100;
    let records = common::blocks("DLLLD", PER, 0).records;
    let mut fleet = StreamingFleet::new(Some(2));
    for _ in 0..2 {
        let cfg = StreamConfig {
            window: WindowSpec::Count(PER),
            hop: PER,
            warm_start: true,
            identify: quick_identify_cfg(),
        };
        fleet.add_path(
            cfg,
            Dur::from_nanos(22_000_000),
            Dur::from_nanos(20_000_000),
        );
    }
    let chunks: [&[ProbeRecord]; 2] = [&records, &records];
    let (_, captured) = metrics::capture(|| fleet.ingest_round(&chunks));
    let paths: Vec<Option<u64>> = captured
        .events
        .iter()
        .filter_map(|e| match e {
            Event::VerdictTransition { path, .. } => Some(*path),
            _ => None,
        })
        .collect();
    let per_path = paths.len() / 2;
    assert!(per_path > 0, "no transitions");
    assert_eq!(
        paths,
        [vec![Some(0); per_path], vec![Some(1); per_path]].concat()
    );
}
