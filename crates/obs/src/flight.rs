//! Always-on flight recorder: a fixed-capacity ring of compact binary
//! records of the *rare* events (drops, handoff failures, flow lifecycle,
//! route failures), dumped when an invariant trips or the run panics.
//!
//! The full [`crate::trace::TraceBuffer`] records every event as an enum
//! with per-variant payloads and is too heavy to leave on in 100k-flow
//! runs. The flight recorder instead stores 24-byte [`FlightRecord`]s and
//! is written only at sparse events, so it stays enabled by default: when
//! a run fails at scale, the failure arrives with its last N events
//! attached instead of a bare panic message.
//!
//! A network registers its recorder for the current thread with
//! [`register`]; the first registration installs a chained panic hook that
//! dumps the registered ring to stderr. Registration holds a weak
//! reference, so a finished run's recorder is collected normally.
//!
//! The recorder is shared as `Arc<Mutex<_>>` (not `Rc<RefCell<_>>`) so a
//! network holding one stays `Send`. The panic hook uses `try_lock`, so a
//! panic while the lock is held degrades to "no dump", never to a second
//! panic.

use std::fmt;
use std::sync::{Arc, Mutex, Once, Weak};

use crate::drop::DropReason;
use crate::ring::Ring;

/// What kind of event a [`FlightRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A packet or frame was dropped; `reason` says why.
    Drop = 0,
    /// A unicast MAC handoff failed (retry exhaustion reported upward).
    TxFail = 1,
    /// An open-loop flow was spawned; `id` is `FlowId::raw`.
    FlowOpen = 2,
    /// An open-loop flow completed; `id` is `FlowId::raw`.
    FlowClose = 3,
    /// Routing declared a route to `id` (a node) lost.
    RouteFail = 4,
}

impl FlightKind {
    fn label(self) -> &'static str {
        match self {
            FlightKind::Drop => "drop",
            FlightKind::TxFail => "tx_fail",
            FlightKind::FlowOpen => "flow_open",
            FlightKind::FlowClose => "flow_close",
            FlightKind::RouteFail => "route_fail",
        }
    }
}

/// One compact record: 24 bytes, no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Simulated time in nanoseconds.
    pub t_nanos: u64,
    /// Packet uid, `FlowId::raw`, or destination node, depending on kind.
    pub id: u64,
    /// Node the event happened at.
    pub node: u32,
    /// Event kind.
    pub kind: FlightKind,
    /// Why, for drops.
    pub reason: Option<DropReason>,
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>14.6}s n{} {}",
            self.t_nanos as f64 / 1e9,
            self.node,
            self.kind.label()
        )?;
        if let Some(reason) = self.reason {
            write!(f, " reason={reason}")?;
        }
        match self.kind {
            FlightKind::FlowOpen | FlightKind::FlowClose => write!(f, " flow={}", self.id),
            FlightKind::RouteFail => write!(f, " dst=n{}", self.id),
            _ => write!(f, " uid={}", self.id),
        }
    }
}

/// Default ring capacity: 4096 records ≈ 96 KiB.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Fixed-capacity ring of [`FlightRecord`]s.
pub type FlightRecorder = Ring<FlightRecord>;

impl Ring<FlightRecord> {
    /// Renders the ring as display lines, oldest first, with a header
    /// summarizing totals and evictions.
    pub fn dump_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len() + 1);
        out.push(format!(
            "flight recorder: {} events recorded, {} evicted, showing last {}",
            self.len() as u64 + self.dropped(),
            self.dropped(),
            self.len()
        ));
        out.extend(self.iter().map(|r| format!("  {r}")));
        out
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Weak<Mutex<FlightRecorder>>> =
        const { std::cell::RefCell::new(Weak::new()) };
}

static HOOK: Once = Once::new();

/// Registers `recorder` as the current thread's flight recorder and
/// installs the process-wide panic hook on first use. The registration is
/// weak: dropping the owning `Arc` deactivates it.
pub fn register(recorder: &Arc<Mutex<FlightRecorder>>) {
    CURRENT.with(|slot| *slot.borrow_mut() = Arc::downgrade(recorder));
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Some(lines) = dump_current() {
                eprintln!(
                    "--- flight recorder (thread {:?}) ---",
                    std::thread::current().id()
                );
                for line in lines {
                    eprintln!("{line}");
                }
            }
        }));
    });
}

/// Dumps the current thread's registered recorder, if one is alive and
/// not locked (the panic hook must never block or re-panic on the lock).
pub fn dump_current() -> Option<Vec<String>> {
    CURRENT.with(|slot| {
        let recorder = slot.borrow().upgrade()?;
        let recorder = recorder.try_lock().ok()?;
        Some(recorder.dump_lines())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ns: u64, uid: u64) -> FlightRecord {
        FlightRecord {
            t_nanos: ns,
            id: uid,
            node: 1,
            kind: FlightKind::Drop,
            reason: Some(DropReason::IfqOverflow),
        }
    }

    #[test]
    fn record_is_compact() {
        assert!(std::mem::size_of::<FlightRecord>() <= 24);
    }

    #[test]
    fn display_carries_reason_and_id() {
        let line = rec(1_500_000, 42).to_string();
        assert!(line.contains("drop"), "{line}");
        assert!(line.contains("reason=ifq_overflow"), "{line}");
        assert!(line.contains("uid=42"), "{line}");
        let open = FlightRecord {
            t_nanos: 0,
            id: 7,
            node: 0,
            kind: FlightKind::FlowOpen,
            reason: None,
        };
        assert!(open.to_string().contains("flow_open flow=7"));
        assert!(!open.to_string().contains("reason="));
    }

    #[test]
    fn ring_wraps_and_counts_evictions() {
        let mut r = FlightRecorder::new(4);
        for i in 0..11 {
            r.push(rec(i, i));
        }
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.len() as u64 + r.dropped(), 11);
        assert_eq!(r.dropped(), 7);
        let times: Vec<u64> = r.iter().map(|x| x.t_nanos).collect();
        assert_eq!(times, vec![7, 8, 9, 10]);
    }

    #[test]
    fn dump_lines_header_reports_evictions() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.push(rec(i, i));
        }
        let lines = r.dump_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("5 events recorded, 3 evicted"));
    }

    #[test]
    fn registration_is_weak_and_dumpable() {
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(8)));
        register(&recorder);
        recorder.lock().unwrap().push(rec(9, 9));
        let lines = dump_current().expect("registered recorder dumps");
        assert!(lines.iter().any(|l| l.contains("uid=9")));
        drop(recorder);
        assert!(dump_current().is_none(), "weak registration must expire");
    }

    #[test]
    fn dump_skips_a_held_lock_instead_of_blocking() {
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(8)));
        register(&recorder);
        let guard = recorder.lock().unwrap();
        assert!(dump_current().is_none(), "held lock must not deadlock");
        drop(guard);
        assert!(dump_current().is_some());
    }
}
