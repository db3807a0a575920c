//! The events half: structured [`Event`]s, where they go, and the
//! artifacts made from them.
//!
//! The workspace's EM fitters, simulator, and hypothesis tests report
//! structured events. When events are **off** (the default) every
//! [`record_with`] call is one relaxed atomic load and an untaken branch
//! — payloads are never even constructed, so the instrumented code paths
//! compile to the same arithmetic as uninstrumented ones. When **on**
//! (env var `DCL_OBS`, or [`install`]) events stream to a [`Recorder`],
//! usually a [`JsonlSink`], and a [`Summary`] counts them per kind for an
//! end-of-run table. Span timings and counters are aggregated by the
//! registry, not here. A Chrome trace is a view of the stream:
//! [`export_chrome_trace`] renders it from the events, captured or parsed
//! back from the JSONL artifact.
//!
//! An event goes where the crate's one routing rule sends it: the
//! innermost capture frame on its thread, else the installed recorder if
//! the events switch is on, else nowhere.

pub use crate::chrome::{
    export_chrome_trace, validate_chrome_trace, write_chrome_trace, TraceStats,
};
pub use crate::event::Event;
pub use crate::recorder::{parse_jsonl, JsonlSink, Recorder, Summary};

use crate::gate::{self, Switch};
use crate::recorder::NoopRecorder;
use std::sync::Mutex;

struct State {
    sink: Box<dyn Recorder>,
    summary: Summary,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Does this thread record events? True inside a capture that records
/// them, and on a thread with no capture open while the events switch is
/// on. With the switch off and no capture open anywhere this is one
/// relaxed load and a mask.
#[inline(always)]
pub fn is_enabled() -> bool {
    gate::is_on(Switch::Events)
}

/// Install a recorder and turn events on. A recorder installed before is
/// finished and dropped; its finish result is returned (`Ok` if there
/// was none).
pub fn install(sink: Box<dyn Recorder>) -> std::io::Result<()> {
    let mut state = STATE.lock().unwrap();
    let replaced = match state.take() {
        Some(mut old) => old.sink.finish(),
        None => Ok(()),
    };
    *state = Some(State {
        sink,
        summary: Summary::default(),
    });
    gate::set(Switch::Events, true);
    replaced
}

/// Turn events on or off without touching the installed recorder.
/// Enabling with no recorder installed installs one that discards the
/// stream (the summary still counts).
pub fn set_enabled(on: bool) {
    if on {
        let mut state = STATE.lock().unwrap();
        if state.is_none() {
            *state = Some(State {
                sink: Box::new(NoopRecorder),
                summary: Summary::default(),
            });
        }
    }
    gate::set(Switch::Events, on);
}

/// Read the `DCL_OBS` environment variable and turn events on if it is
/// on. Unset, `""`, `"0"`, `"false"` and `"off"` mean off; any other
/// value means on. Returns whether it is.
pub fn init_from_env() -> bool {
    let on = gate::env_flag("DCL_OBS");
    if on {
        set_enabled(true);
    }
    on
}

/// Record one event. Prefer [`record_with`] in hot paths so the payload
/// is only built when enabled.
#[inline]
pub fn record(ev: Event) {
    record_with(move || ev);
}

/// Record the event built by `f`, constructing it only when this thread
/// has somewhere to send it.
#[inline(always)]
pub fn record_with(f: impl FnOnce() -> Event) {
    if is_enabled() {
        route(move || std::iter::once(f()));
    }
}

/// Send the events `build` makes where this thread's events go. `build`
/// runs only once there is a destination.
#[cold]
pub(crate) fn route<I: IntoIterator<Item = Event>>(build: impl FnOnce() -> I) {
    gate::route(
        Switch::Events,
        build,
        |frame, events| frame.events.extend(events),
        |events| {
            if let Some(state) = STATE.lock().unwrap().as_mut() {
                for ev in events {
                    state.summary.observe(&ev);
                    state.sink.record(ev);
                }
            }
        },
    );
}

/// Finish the run: turn events off, finish and drop the recorder, and
/// return the aggregated [`Summary`] with the recorder's finish result —
/// the first error it met writing its artifact, if any. Returns `None`
/// if nothing was installed.
pub fn finish() -> Option<(Summary, std::io::Result<()>)> {
    gate::set(Switch::Events, false);
    let mut state = STATE.lock().unwrap();
    state.take().map(|mut s| {
        let written = s.sink.finish();
        (s.summary, written)
    })
}
