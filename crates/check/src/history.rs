//! Concurrent histories, stamped by the harness itself.
//!
//! Every harness thread of one run shares a [`HistoryClock`]: each
//! operation takes one tick before it is invoked and one after it returns,
//! giving a real-time partial order with no wall clocks (deterministic
//! under replay). A thread builds whole [`Call`]s, so a history is never
//! unpaired or mismatched.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// The result an operation reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRet {
    /// Insert reporting whether the key was new.
    Inserted(bool),
    /// Delete reporting whether the key existed.
    Deleted(bool),
    /// Read observing `Some(value)` or `None`.
    Got(Option<u64>),
    /// Read returning a value that is not 8 bytes: no value the harness
    /// wrote, so no linearization explains it.
    Malformed,
}

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Recording thread (harness-local index).
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

/// The logical clock one harness run shares across its threads.
#[derive(Debug, Default)]
pub struct HistoryClock(AtomicU64);

impl HistoryClock {
    /// Run `op` as one call of thread `tid`, stamped at invocation and at
    /// return. `SeqCst` ticks make "returned before invoked" in clock order
    /// imply it in real time.
    pub fn call(
        &self,
        tid: u32,
        kind: OpKind,
        key: u64,
        arg: u64,
        op: impl FnOnce() -> OpRet,
    ) -> Call {
        let invoke = self.0.fetch_add(1, Ordering::SeqCst);
        let ret = op();
        let ret_at = self.0.fetch_add(1, Ordering::SeqCst);
        Call {
            tid,
            invoke,
            ret_at,
            kind,
            key,
            arg,
            ret,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_decode_roundtrip() {
        let clock = HistoryClock::default();
        let calls = [
            clock.call(0, OpKind::Insert, 7, 41, || OpRet::Inserted(true)),
            clock.call(0, OpKind::Get, 7, 0, || OpRet::Got(Some(41))),
            clock.call(0, OpKind::Delete, 7, 0, || OpRet::Deleted(true)),
            clock.call(0, OpKind::Get, 7, 0, || OpRet::Got(None)),
        ];
        assert_eq!(calls[0].kind, OpKind::Insert);
        assert_eq!(calls[0].arg, 41);
        assert_eq!(calls[0].ret, OpRet::Inserted(true));
        assert_eq!(calls[1].ret, OpRet::Got(Some(41)));
        assert_eq!(calls[2].ret, OpRet::Deleted(true));
        assert_eq!(calls[3].ret, OpRet::Got(None));
        assert!(calls.windows(2).all(|w| w[0].ret_at < w[1].invoke));
        assert!(calls.iter().all(|c| c.invoke < c.ret_at));
    }
}
