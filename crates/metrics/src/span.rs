//! Scoped spans.
//!
//! [`span`] opens a scoped span: a `span-open` event on entry and the
//! matching `span-close` on drop. Spans close by RAII, and a fork-join
//! region replays its items' events in index order, so the stream is
//! properly nested at every worker-thread count: the order of the opens
//! and closes is the causal tree, and no event names another. The span
//! enclosing an open is the innermost one still open before it.

use crate::gate;
use crate::obs::{self, Event};
use std::time::Instant;

/// RAII scoped span. When events are recorded it records an
/// [`Event::SpanOpen`] on entry and the matching [`Event::SpanClose`]
/// (with wall-clock duration) on drop. It feeds the registry's span
/// profile whenever *either* facility might record — so `DCL_METRICS=1`
/// alone still yields per-phase wall-time profiles, without any events.
/// When the gate is off the constructor takes no timestamp and the drop
/// is a branch on `None`.
pub struct Span {
    start: Option<(&'static str, Instant)>,
    /// Was an open event recorded (events on at construction)? The drop
    /// then records the close.
    opened: bool,
}

/// Start a named scoped span.
#[inline(always)]
pub fn span(name: &'static str) -> Span {
    let start = gate::any_on().then(|| (name, Instant::now()));
    let opened = obs::is_enabled();
    if opened {
        open_span(name);
    }
    Span { start, opened }
}

#[cold]
fn open_span(name: &'static str) {
    obs::record(Event::SpanOpen {
        name: name.to_string(),
    });
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.start.take() {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::observe_duration_ns(name, wall_ns);
            if self.opened {
                obs::record_with(|| Event::SpanClose {
                    name: name.to_string(),
                    wall_ns,
                });
            }
        }
    }
}
