//! Concurrent histories over the `pitree-obs` event rings.
//!
//! Harness threads record each operation as an [`EventKind::OpInvoke`] /
//! [`EventKind::OpReturn`] pair through a dedicated [`Registry`]; the
//! registry's logical clock stamps both edges, giving a real-time partial
//! order with no wall clocks (deterministic under replay). This module
//! owns the payload encoding and the decode back into [`Call`]s.
//!
//! Encoding (two `u64` payload words per event):
//! - `a` = `op_code << 56 | key` — op codes are [`OpKind`] discriminants,
//!   keys are small integers from the harness key domain.
//! - `b` on invoke = argument (the value being inserted; 0 otherwise).
//! - `b` on return = result: for [`OpKind::Get`], `0` for absent else
//!   `value + 1`; for [`OpKind::Insert`], the created flag; for
//!   [`OpKind::Delete`], the existed flag.

use pitree_obs::{Event, EventKind, Recorder, Registry};

/// The three point operations a history records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Upsert of `(key, arg)`.
    Insert,
    /// Delete of `key`.
    Delete,
    /// Point read of `key`.
    Get,
}

impl OpKind {
    fn code(self) -> u64 {
        match self {
            OpKind::Insert => 1,
            OpKind::Delete => 2,
            OpKind::Get => 3,
        }
    }

    fn from_code(code: u64) -> Option<OpKind> {
        match code {
            1 => Some(OpKind::Insert),
            2 => Some(OpKind::Delete),
            3 => Some(OpKind::Get),
            _ => None,
        }
    }
}

/// The result an operation reported, as carried in the return event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRet {
    /// Insert reporting whether the key was new.
    Inserted(bool),
    /// Delete reporting whether the key existed.
    Deleted(bool),
    /// Read observing `Some(value)` or `None`.
    Got(Option<u64>),
}

/// One completed operation: a matched invoke/return pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Recording thread (registry-local id).
    pub tid: u32,
    /// Logical clock at invocation.
    pub invoke: u64,
    /// Logical clock at return; always `> invoke`.
    pub ret_at: u64,
    /// Which operation.
    pub kind: OpKind,
    /// The key operated on.
    pub key: u64,
    /// Insert argument (0 for delete/get).
    pub arg: u64,
    /// The reported result.
    pub ret: OpRet,
}

/// What went wrong while decoding a raw event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// A thread's stream had a return with no pending invoke, or two
    /// invokes in a row (operations within a thread are sequential).
    Unpaired {
        /// Thread whose stream is malformed.
        tid: u32,
        /// Logical clock of the offending event.
        clock: u64,
    },
    /// An event carried an op code outside [`OpKind`].
    BadOpCode {
        /// The unknown code.
        code: u64,
    },
    /// A return event did not match its invoke's op/key.
    Mismatched {
        /// Thread whose stream is malformed.
        tid: u32,
        /// Logical clock of the return event.
        clock: u64,
    },
    /// The ring dropped events, so the history is incomplete and cannot
    /// be checked soundly.
    Dropped,
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Unpaired { tid, clock } => {
                write!(f, "unpaired invoke/return on tid {tid} at clock {clock}")
            }
            HistoryError::BadOpCode { code } => write!(f, "unknown op code {code}"),
            HistoryError::Mismatched { tid, clock } => {
                write!(
                    f,
                    "return does not match invoke on tid {tid} at clock {clock}"
                )
            }
            HistoryError::Dropped => write!(f, "event ring dropped history events"),
        }
    }
}

/// Records one thread's operations into a shared registry. Clone a fresh
/// recorder per thread from the same [`HistoryLog`].
#[derive(Debug)]
pub struct OpRecorder {
    rec: Recorder,
}

impl OpRecorder {
    fn packed(kind: OpKind, key: u64) -> u64 {
        debug_assert!(key < 1 << 56);
        kind.code() << 56 | key
    }

    /// Record the invocation edge.
    pub fn invoke(&self, kind: OpKind, key: u64, arg: u64) {
        self.rec
            .event(EventKind::OpInvoke, Self::packed(kind, key), arg);
    }

    /// Record the return edge.
    pub fn ret(&self, kind: OpKind, key: u64, ret: OpRet) {
        let b = match ret {
            OpRet::Inserted(created) => u64::from(created),
            OpRet::Deleted(existed) => u64::from(existed),
            OpRet::Got(None) => 0,
            OpRet::Got(Some(v)) => v + 1,
        };
        self.rec
            .event(EventKind::OpReturn, Self::packed(kind, key), b);
    }
}

/// A history log: a dedicated registry sized so harness runs never drop
/// events (dropped events would make the checker unsound, so decode
/// refuses them).
#[derive(Debug)]
pub struct HistoryLog {
    registry: Registry,
}

impl Default for HistoryLog {
    fn default() -> HistoryLog {
        HistoryLog::new()
    }
}

impl HistoryLog {
    /// A log with room for 64Ki events per thread — far above what the
    /// bounded harness workloads emit.
    pub fn new() -> HistoryLog {
        HistoryLog {
            registry: Registry::with_event_capacity(64 * 1024),
        }
    }

    /// A per-thread recorder. Call once in each harness thread.
    pub fn recorder(&self) -> OpRecorder {
        OpRecorder {
            rec: self.registry.recorder(),
        }
    }

    /// Drain and decode the recorded history into completed calls,
    /// sorted by invocation clock.
    pub fn take_history(&self) -> Result<Vec<Call>, HistoryError> {
        decode(self.registry.drain_events())
    }
}

/// Decode a drained event stream into completed calls. Non-history event
/// kinds are ignored, so a harness may share the registry with the tree's
/// own instrumentation.
pub fn decode(events: Vec<Event>) -> Result<Vec<Call>, HistoryError> {
    // Per-tid pending invoke; ops within a thread are sequential.
    let mut pending: std::collections::HashMap<u32, Event> = std::collections::HashMap::new();
    // Per-tid last seen seq: a gap means the ring wrapped and dropped
    // events, which would silently hide operations from the checker.
    let mut last_seq: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut calls = Vec::new();
    for ev in events {
        if let Some(prev) = last_seq.insert(ev.tid, ev.seq) {
            if ev.seq != prev + 1 {
                return Err(HistoryError::Dropped);
            }
        }
        match ev.kind {
            EventKind::OpInvoke if pending.contains_key(&ev.tid) => {
                return Err(HistoryError::Unpaired {
                    tid: ev.tid,
                    clock: ev.clock,
                });
            }
            EventKind::OpInvoke => {
                pending.insert(ev.tid, ev);
            }
            EventKind::OpReturn => {
                let inv = pending.remove(&ev.tid).ok_or(HistoryError::Unpaired {
                    tid: ev.tid,
                    clock: ev.clock,
                })?;
                if inv.a != ev.a {
                    return Err(HistoryError::Mismatched {
                        tid: ev.tid,
                        clock: ev.clock,
                    });
                }
                let code = ev.a >> 56;
                let kind = OpKind::from_code(code).ok_or(HistoryError::BadOpCode { code })?;
                let key = ev.a & ((1 << 56) - 1);
                let ret = match kind {
                    OpKind::Insert => OpRet::Inserted(ev.b != 0),
                    OpKind::Delete => OpRet::Deleted(ev.b != 0),
                    OpKind::Get => OpRet::Got(ev.b.checked_sub(1)),
                };
                calls.push(Call {
                    tid: ev.tid,
                    invoke: inv.clock,
                    ret_at: ev.clock,
                    kind,
                    key,
                    arg: inv.b,
                    ret,
                });
            }
            _ => {}
        }
    }
    if !pending.is_empty() {
        // A leftover invoke means the harness lost a return (or a thread
        // died mid-op); the bounded harnesses always complete.
        let ev = pending.values().next().expect("non-empty");
        return Err(HistoryError::Unpaired {
            tid: ev.tid,
            clock: ev.clock,
        });
    }
    calls.sort_by_key(|c| c.invoke);
    Ok(calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_decode_roundtrip() {
        let log = HistoryLog::new();
        let rec = log.recorder();
        rec.invoke(OpKind::Insert, 7, 41);
        rec.ret(OpKind::Insert, 7, OpRet::Inserted(true));
        rec.invoke(OpKind::Get, 7, 0);
        rec.ret(OpKind::Get, 7, OpRet::Got(Some(41)));
        rec.invoke(OpKind::Delete, 7, 0);
        rec.ret(OpKind::Delete, 7, OpRet::Deleted(true));
        rec.invoke(OpKind::Get, 7, 0);
        rec.ret(OpKind::Get, 7, OpRet::Got(None));

        let calls = log.take_history().unwrap();
        assert_eq!(calls.len(), 4);
        assert_eq!(calls[0].kind, OpKind::Insert);
        assert_eq!(calls[0].arg, 41);
        assert_eq!(calls[0].ret, OpRet::Inserted(true));
        assert_eq!(calls[1].ret, OpRet::Got(Some(41)));
        assert_eq!(calls[2].ret, OpRet::Deleted(true));
        assert_eq!(calls[3].ret, OpRet::Got(None));
        assert!(calls.windows(2).all(|w| w[0].invoke < w[1].invoke));
        assert!(calls.iter().all(|c| c.invoke < c.ret_at));
    }

    #[test]
    fn unpaired_return_is_an_error() {
        let log = HistoryLog::new();
        let rec = log.recorder();
        rec.ret(OpKind::Get, 1, OpRet::Got(None));
        assert!(matches!(
            log.take_history(),
            Err(HistoryError::Unpaired { .. })
        ));
    }

    #[test]
    fn dangling_invoke_is_an_error() {
        let log = HistoryLog::new();
        let rec = log.recorder();
        rec.invoke(OpKind::Get, 1, 0);
        assert!(matches!(
            log.take_history(),
            Err(HistoryError::Unpaired { .. })
        ));
    }
}
