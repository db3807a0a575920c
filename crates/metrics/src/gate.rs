//! The one telemetry gate, the one capture frame and the one routing
//! rule.
//!
//! One word holds the events switch ([`crate::obs::set_enabled`]), the
//! registry switch ([`crate::set_enabled`]) and, above them, a count of
//! the captures open on any thread. Each thread keeps one stack of
//! capture frames; a frame names the facilities it records for
//! ([`Live`]) and holds what was recorded into it: its events and its
//! metric folds. A thread records for a facility if its innermost frame
//! does, or, with no frame open on it, if that facility's global switch
//! is on. So a capture
//! records whatever the switches say, and a thread with no frame records
//! exactly what the switches say, whatever captures other threads hold.
//!
//! The fast path is one relaxed load and a mask: with every switch off
//! and no capture open anywhere, nothing else is read. Only while some
//! capture is open does the check read the frame stack. A record that
//! passes the gate is [`route`]d: to the innermost frame on its thread,
//! else to the global sink or registry if its switch is on, else
//! nowhere, and then it is never built.
//!
//! Relaxed ordering suffices: switches flip at run boundaries, a
//! capture's count is raised and lowered on the thread that opened it,
//! and a frame is only ever read by its own thread.

use crate::obs::Event;
use crate::Shard;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

static GATE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's open capture frames, innermost last. Empty when the
    /// thread records straight to the global sink and registry.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The two global switches the gate word carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Switch {
    /// Events stream to the installed recorder.
    Events = 1,
    /// Folds land in the global metrics registry.
    Registry = 2,
}

/// Both switch bits.
const SWITCHES: usize = Switch::Events as usize | Switch::Registry as usize;
/// The word's capture-count bits: everything above the two switches.
const CAPTURES: usize = !SWITCHES;
/// One open capture.
const ONE_CAPTURE: usize = 1 << 2;

/// The facilities a thread records for: a set of [`Switch`]es.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Live(usize);

impl Live {
    /// Records nothing.
    pub(crate) const NONE: Live = Live(0);
    /// Records events and folds.
    pub(crate) const ALL: Live = Live(SWITCHES);

    /// Does this set record for `switch`'s facility?
    #[inline]
    pub(crate) fn has(self, switch: Switch) -> bool {
        self.0 & switch as usize != 0
    }

    /// Does this set record nothing?
    #[inline]
    pub(crate) fn is_none(self) -> bool {
        self == Live::NONE
    }
}

/// One capture frame: what it records for and what it has recorded.
pub(crate) struct Frame {
    live: Live,
    pub(crate) events: Vec<Event>,
    pub(crate) shard: Shard,
}

/// What this thread records for, given the gate `word`: its innermost
/// frame's set, else the global switches. The frame stack is read only
/// while some capture is open.
#[inline]
fn live_in(word: usize) -> Live {
    if word & CAPTURES != 0 {
        if let Some(live) = FRAMES.with(|frames| frames.borrow().last().map(|f| f.live)) {
            return live;
        }
    }
    Live(word & SWITCHES)
}

/// Does this thread record for `switch`'s facility? With the switch off
/// and no capture open anywhere this is one relaxed load and a mask.
#[inline(always)]
pub(crate) fn is_on(switch: Switch) -> bool {
    let word = GATE.load(Ordering::Relaxed);
    word & (switch as usize | CAPTURES) != 0 && live_in(word).has(switch)
}

/// Does this thread record for either facility? With the gate all off
/// this is one relaxed load.
#[inline(always)]
pub(crate) fn any_on() -> bool {
    let word = GATE.load(Ordering::Relaxed);
    word != 0 && !live_in(word).is_none()
}

/// The facilities this thread records for.
pub(crate) fn live() -> Live {
    live_in(GATE.load(Ordering::Relaxed))
}

/// Turn the global `switch` on or off. Leaves the other switch and the
/// capture count as they are.
pub(crate) fn set(switch: Switch, on: bool) {
    if on {
        GATE.fetch_or(switch as usize, Ordering::Relaxed);
    } else {
        GATE.fetch_and(!(switch as usize), Ordering::Relaxed);
    }
}

/// The routing rule. A record for `switch`'s facility goes to this
/// thread's innermost capture frame (`framed`), else to the global sink
/// or registry if the global switch is on (`global`), else nowhere.
/// `build` runs only once there is a destination, outside any borrow of
/// the frame stack.
pub(crate) fn route<T>(
    switch: Switch,
    build: impl FnOnce() -> T,
    framed: impl FnOnce(&mut Frame, T),
    global: impl FnOnce(T),
) {
    if FRAMES.with(|frames| frames.borrow().is_empty()) {
        if GATE.load(Ordering::Relaxed) & switch as usize != 0 {
            global(build());
        }
    } else {
        let value = build();
        FRAMES.with(|frames| framed(frames.borrow_mut().last_mut().expect("framed"), value));
    }
}

/// Apply `f` to this thread's innermost capture frame, if one is open.
pub(crate) fn innermost<R>(f: impl FnOnce(&Frame) -> R) -> Option<R> {
    FRAMES.with(|frames| frames.borrow().last().map(f))
}

/// One open capture frame on this thread. Dropping it — normally or
/// while a panic unwinds — pops the frame and lowers the gate's capture
/// count, so a panicking capture leaves no recording switched on behind
/// it.
pub(crate) struct Capture(());

impl Capture {
    /// Push a frame that records for `live` and count it in the gate.
    pub(crate) fn open(live: Live) -> Capture {
        debug_assert!(!live.is_none(), "a capture must record something");
        let frame = Frame {
            live,
            events: Vec::new(),
            shard: Shard::default(),
        };
        FRAMES.with(|frames| frames.borrow_mut().push(frame));
        GATE.fetch_add(ONE_CAPTURE, Ordering::Relaxed);
        Capture(())
    }

    /// Take the frame's events and folds; the drop then pops the
    /// emptied frame.
    pub(crate) fn close(self) -> (Vec<Event>, Shard) {
        FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let frame = frames.last_mut().expect("own frame");
            (
                std::mem::take(&mut frame.events),
                std::mem::take(&mut frame.shard),
            )
        })
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        FRAMES.with(|frames| frames.borrow_mut().pop().expect("own frame"));
        GATE.fetch_sub(ONE_CAPTURE, Ordering::Relaxed);
    }
}

/// Read an on/off environment variable: `DCL_OBS` or `DCL_METRICS`.
/// Unset, `""`, `"0"`, `"false"` and `"off"` mean off; any other value
/// means on.
pub(crate) fn env_flag(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| flag_value(&v))
}

fn flag_value(v: &str) -> bool {
    !matches!(v, "" | "0" | "false" | "off")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_reads_the_shared_grammar() {
        for off in ["", "0", "false", "off"] {
            assert!(!flag_value(off), "{off:?} must read as off");
        }
        for on in ["1", "true", "on", "yes", "2", " 0", "OFF"] {
            assert!(flag_value(on), "{on:?} must read as on");
        }
        assert!(!env_flag("DCL_METRICS_TEST_VARIABLE_THAT_IS_NEVER_SET"));
    }

    #[test]
    fn a_frame_decides_for_its_own_thread_only() {
        let outer = Capture::open(Live(Switch::Registry as usize));
        assert!(is_on(Switch::Registry));
        assert!(!is_on(Switch::Events), "the frame does not record events");
        assert!(any_on());
        // Another thread has no frame: it reads the switches, which no
        // test in this binary turns on.
        std::thread::spawn(|| {
            assert!(!is_on(Switch::Registry) && !is_on(Switch::Events));
            assert!(!any_on());
            assert!(live().is_none());
        })
        .join()
        .unwrap();
        let inner = Capture::open(Live::ALL);
        assert!(is_on(Switch::Events));
        drop(inner);
        assert_eq!(live(), Live(Switch::Registry as usize));
        drop(outer);
        assert!(live().is_none());
        assert!(innermost(|_| ()).is_none(), "both frames are popped");
    }
}
