//! Deterministic fork-join execution layer for the workspace.
//!
//! Every hot loop of the reproduction — EM random restarts, the
//! sub-segment duration sweep of Figs. 9/14, the Table II–IV scenario
//! grids — has the same shape: `n` independent work items whose results
//! are reduced in item order. This crate provides that shape once, on top
//! of [`std::thread::scope`], with a guarantee the rest of the workspace
//! leans on:
//!
//! > **Determinism.** [`par_map_indexed`] returns *bitwise-identical*
//! > results for every worker count, including 1. Work items receive only
//! > their index, results are collected by index, and the caller reduces
//! > them in index order — so the schedule (which worker ran which item,
//! > in what order) can never leak into the output. The serial path
//! > (`parallelism = Some(1)`) is a plain `map` with no thread machinery
//! > at all, byte-for-byte the legacy behaviour.
//!
//! The worker count resolves, in order: the caller's explicit request, the
//! `DCL_PARALLELISM` environment variable (`RAYON_NUM_THREADS` is honoured
//! as an alias since operators expect it), and finally
//! [`std::thread::available_parallelism`]. The crate spawns scoped threads
//! per call rather than keeping a global pool: every call site here runs
//! items that cost milliseconds to seconds, so the microseconds of spawn
//! overhead never matter, and scoped threads let closures borrow from the
//! caller's stack without `Arc` gymnastics.
//!
//! No third-party dependencies (notably: no rayon) — the build must work
//! in hermetic environments whose registries only carry what the seed
//! already used. The only dependencies are the workspace's own telemetry
//! crates, whose deterministic-merge contract this crate implements: when
//! the calling thread records telemetry, each work item runs under a
//! capture that records what that thread records
//! (`dcl_metrics::Recording`), and its events and metric folds are
//! replayed **in index order** after the join, so the instrumented event
//! stream and registry are identical to a serial run at any worker count,
//! span nesting included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolve the effective worker count for a requested parallelism.
///
/// `Some(n)` is honoured exactly (clamped to at least 1); `None` falls
/// back to the `DCL_PARALLELISM` / `RAYON_NUM_THREADS` environment
/// variables and then to the number of available cores.
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }),
    }
}

/// Worker count from the environment, if configured to a positive number.
fn env_threads() -> Option<usize> {
    ["DCL_PARALLELISM", "RAYON_NUM_THREADS"]
        .iter()
        .filter_map(|var| std::env::var(var).ok())
        .filter_map(|v| v.trim().parse::<usize>().ok())
        .find(|&n| n > 0)
}

/// Map `f` over `0..n` with the requested parallelism, returning results
/// in index order.
///
/// `f` must be a pure function of its index for the determinism guarantee
/// to mean anything; all workspace call sites derive any randomness from
/// a per-index seed. A panic in any work item propagates to the caller
/// with its original payload after the remaining workers finish their
/// current item, matching the serial path's abort-on-panic behaviour
/// closely enough for tests.
pub fn par_map_indexed<T, F>(parallelism: Option<usize>, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(parallelism).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let recording = dcl_metrics::Recording::current();
    if recording.records() {
        // Deterministic merge: capture each item's events and metric folds
        // on its worker thread, then replay them in index order after the
        // join. The event stream and the registry end up identical to the
        // serial path's.
        let items = par_map_core(threads, n, |i| recording.capture(|| f(i)));
        return items
            .into_iter()
            .map(|(value, captured)| {
                dcl_metrics::replay(captured);
                value
            })
            .collect();
    }
    par_map_core(threads, n, f)
}

/// The threaded work-stealing body of [`par_map_indexed`]: `threads` ≥ 2
/// scoped workers pull indices from a shared counter and results are
/// collected by index.
fn par_map_core<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, v) in rx {
            slots[i] = Some(v);
        }
        // Re-raise a worker's panic with its own payload rather than
        // tripping over the hole it left in `slots`.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced exactly once"))
            .collect()
    })
}

/// Map `f` over a slice with the requested parallelism, returning results
/// in item order. Convenience wrapper over [`par_map_indexed`].
pub fn par_map<T, U, F>(parallelism: Option<usize>, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(parallelism, items.len(), |i| f(&items[i]))
}

/// SplitMix64 finalizer: a cheap, high-quality mix for deriving
/// independent per-item RNG seeds from a base seed and item coordinates.
///
/// Work items must not share a sequential RNG (the draw order would then
/// depend on the schedule); instead each derives its own seed, e.g.
/// `mix64(base ^ mix64(index))`. SplitMix64 is the same construction
/// `SmallRng::seed_from_u64` uses internally, so nearby inputs yield
/// statistically independent streams.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let f = |i: usize| (i as f64).sqrt().sin() / (i as f64 + 0.5);
        let serial = par_map_indexed(Some(1), 64, f);
        for threads in [2, 3, 8] {
            let parallel = par_map_indexed(Some(threads), 64, f);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn preserves_index_order() {
        let out = par_map_indexed(Some(4), 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_maps_items() {
        let items = vec!["a", "bb", "ccc"];
        let out = par_map(Some(2), &items, |s| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(par_map_indexed::<usize, _>(None, 0, |i| i).is_empty());
        assert_eq!(par_map_indexed(Some(8), 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(Some(0)), 1);
        assert_eq!(effective_threads(Some(5)), 5);
        assert!(effective_threads(None) >= 1);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_indexed(Some(32), 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(Some(2), 8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn instrumented_events_merge_in_index_order() {
        // Capture at the top level on the calling thread: the join's
        // replay drains into this frame, exposing the merged stream
        // without installing a global recorder.
        let ((), captured) = dcl_metrics::capture(|| {
            let _ = par_map_indexed(Some(4), 16, |i| {
                dcl_metrics::obs::record(dcl_metrics::obs::Event::FaultInjection {
                    fault: "item".into(),
                    seed: i as u64,
                    affected: 0,
                });
                i
            });
        });
        let seeds: Vec<u64> = captured
            .events
            .iter()
            .map(|e| match e {
                dcl_metrics::obs::Event::FaultInjection { seed, .. } => *seed,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<u64> = (0..16).collect();
        assert_eq!(seeds, expected, "merge must follow item index order");
    }

    #[test]
    fn span_stream_is_identical_and_nested_at_1_2_and_4_threads() {
        use dcl_metrics::obs::Event;
        let run = |threads: usize| {
            let ((), captured) = dcl_metrics::capture(|| {
                let _outer = dcl_metrics::span("region");
                let _ = par_map_indexed(Some(threads), 8, |i| {
                    let _s = dcl_metrics::span("item");
                    i
                });
            });
            captured
                .events
                .iter()
                .map(|e| match e {
                    Event::SpanOpen { name } => ("open", name.clone()),
                    Event::SpanClose { name, .. } => ("close", name.clone()),
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        // Every item span opens and closes inside the region, one after
        // another.
        let item = [("open", "item".to_owned()), ("close", "item".to_owned())];
        let mut nested = vec![("open", "region".to_owned())];
        (0..8).for_each(|_| nested.extend(item.clone()));
        nested.push(("close", "region".to_owned()));
        for threads in [1, 2, 4] {
            assert_eq!(run(threads), nested, "threads={threads}");
        }
    }

    #[test]
    fn metric_folds_merge_in_index_order() {
        let ((), captured) = dcl_metrics::capture(|| {
            let _ = par_map_indexed(Some(4), 16, |i| {
                dcl_metrics::counter("par.items", 1);
                dcl_metrics::gauge("par.last", i as u64);
                i
            });
        });
        let snap = captured.metrics.snapshot();
        assert_eq!(snap.counters["par.items"], 16);
        // Last-write-wins gauges must resolve by item index, not by the
        // worker schedule: the highest index always lands last.
        assert_eq!(snap.gauges["par.last"], 15);
    }

    #[test]
    fn mix64_separates_nearby_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Hamming distance between adjacent inputs should be substantial.
        assert!((a ^ b).count_ones() > 10);
    }
}
