//! Concurrency models of the engine's lock-free and locked structures.
//!
//! Each model mirrors one real algorithm (the file and function it models
//! is named in its docs) and comes in two flavors: the shipped algorithm,
//! which must pass exhaustively, and a `racy` variant with the
//! synchronization deliberately weakened, which the explorer must catch.
//! The racy variants are the checker's own regression tests — if a
//! refactor of the explorer stops catching them, the checker is broken,
//! not the engine.

mod cursor;
mod registry;

pub use cursor::CursorModel;
pub use registry::{CounterModel, GaugeMaxModel, ScopeGrowModel};

use super::ShimMutex;
use crate::sched::Model;

/// Two threads taking two [`ShimMutex`]es; `inverted` makes thread 1
/// acquire them in the opposite order, the textbook ABBA deadlock the
/// `lock-order` lint rule exists to prevent. The explorer reports it as a
/// deadlock counterexample rather than hanging.
#[derive(Clone)]
pub struct TwoLockModel {
    /// Whether thread 1 acquires in reverse order (the bug).
    pub inverted: bool,
    locks: [ShimMutex; 2],
    pc: [usize; 2],
}

impl TwoLockModel {
    /// A fresh model; `inverted` selects the buggy acquisition order.
    pub fn new(inverted: bool) -> Self {
        Self {
            inverted,
            locks: [ShimMutex::new(), ShimMutex::new()],
            pc: [0, 0],
        }
    }

    /// Lock indices in the order thread `tid` acquires them.
    fn order(&self, tid: usize) -> [usize; 2] {
        if tid == 1 && self.inverted {
            [1, 0]
        } else {
            [0, 1]
        }
    }
}

impl Model for TwoLockModel {
    fn name(&self) -> &'static str {
        if self.inverted {
            "two-lock (inverted order)"
        } else {
            "two-lock (declared order)"
        }
    }

    fn thread_count(&self) -> usize {
        2
    }

    fn is_done(&self, tid: usize) -> bool {
        self.pc[tid] == 4
    }

    fn is_blocked(&self, tid: usize) -> bool {
        let [first, second] = self.order(tid);
        match self.pc[tid] {
            0 => self.locks[first].would_block(tid),
            1 => self.locks[second].would_block(tid),
            _ => false,
        }
    }

    fn step(&mut self, tid: usize) -> Result<(), String> {
        let [first, second] = self.order(tid);
        match self.pc[tid] {
            0 => {
                if !self.locks[first].try_acquire(tid) {
                    return Err(format!("t{tid} stepped while blocked on lock {first}"));
                }
            }
            1 => {
                if !self.locks[second].try_acquire(tid) {
                    return Err(format!("t{tid} stepped while blocked on lock {second}"));
                }
            }
            2 => self.locks[second].release(tid),
            3 => self.locks[first].release(tid),
            _ => return Err(format!("t{tid} stepped past completion")),
        }
        self.pc[tid] += 1;
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::explore;

    #[test]
    fn declared_order_never_deadlocks() {
        let stats = explore(&TwoLockModel::new(false), 8).unwrap();
        assert!(stats.schedules > 1);
    }

    #[test]
    fn inverted_order_deadlocks_and_is_reported() {
        let cex = explore(&TwoLockModel::new(true), 8).unwrap_err();
        assert!(cex.error.contains("deadlock"), "{cex}");
    }
}
