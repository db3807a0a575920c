//! Inputs shared by the integration tests: one synthetic probe-record
//! stream and one synthetic observation sequence. Each test binary
//! compiles this module on its own and uses a part of it.
#![allow(dead_code)]

use dominant_congested_links::netsim::packet::ProbeStamp;
use dominant_congested_links::netsim::sim::ProbeRecord;
use dominant_congested_links::netsim::time::{Dur, Time};
use dominant_congested_links::netsim::ProbeTrace;
use dominant_congested_links::probnum::Obs;

/// What one record of the synthetic stream looks like.
#[derive(Clone, Copy)]
pub enum Pattern {
    /// A dominant congested link: every 25 probes (counted from `offset`)
    /// carry a burst `burst_ms` to `burst_ms + 20` ms deep, and the only
    /// losses (hop 1) are the two inside it.
    Dominant { burst_ms: f64, offset: usize },
    /// Every probe delivered with benign delays: `identify` answers
    /// `NoLosses`.
    Lossless,
}

/// The dominant pattern most tests use: 165 ms bursts, no phase offset.
pub const DOMINANT: Pattern = Pattern::Dominant {
    burst_ms: 165.0,
    offset: 0,
};

/// Probes `0..n` on a 20 ms clock over a 22 ms delay floor, probe `i`
/// following `pattern(i)`.
pub fn trace(n: usize, pattern: impl Fn(usize) -> Pattern) -> ProbeTrace {
    let records = (0..n)
        .map(|i| {
            let sent = Time::from_secs(i as f64 * 0.02);
            let mut stamp = ProbeStamp::new(i as u64, None, sent);
            let arrival = match pattern(i) {
                Pattern::Lossless => Some(sent + Dur::from_millis(25.0 + (i % 50) as f64)),
                Pattern::Dominant { burst_ms, offset } => {
                    let phase = (i + offset) % 25;
                    if phase == 19 || phase == 21 {
                        stamp.loss_hop = Some(1);
                        None
                    } else if phase >= 17 {
                        Some(sent + Dur::from_millis(burst_ms + (phase % 5) as f64 * 5.0))
                    } else {
                        Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
                    }
                }
            };
            ProbeRecord { stamp, arrival }
        })
        .collect();
    ProbeTrace {
        records,
        base_delay: Dur::from_millis(22.0),
        interval: Dur::from_millis(20.0),
    }
}

/// `n` probes of the [`DOMINANT`] pattern.
pub fn dominant_trace(n: usize) -> ProbeTrace {
    trace(n, |_| DOMINANT)
}

/// One block of `per` probes per character of `kinds`: `D` the dominant
/// pattern shifted by `offset`, `L` loss-free.
pub fn blocks(kinds: &str, per: usize, offset: usize) -> ProbeTrace {
    let kinds = kinds.as_bytes();
    trace(kinds.len() * per, |i| match kinds[i / per] {
        b'D' => Pattern::Dominant {
            burst_ms: 165.0,
            offset,
        },
        _ => Pattern::Lossless,
    })
}

/// Observation sequence with a high-delay burst and one loss every 50
/// symbols; `salt` moves the bursts.
pub fn synth_obs(t: usize, m: usize, salt: usize) -> Vec<Obs> {
    (0..t)
        .map(|i| {
            let phase = (i + salt * 13) % 50;
            if phase == 40 {
                Obs::Loss
            } else if phase > 35 {
                Obs::Sym(m as u16)
            } else {
                Obs::Sym(1 + ((i * 7 + salt) % (m - 1)) as u16)
            }
        })
        .collect()
}

/// The bits of each float, for comparing parameter blocks with
/// `assert_eq!`.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
