//! Model of nested `wacs_sync::OrderedMutex` acquisition.
//!
//! Each thread runs a straight-line program: acquire its locks in a
//! fixed order, then release them in reverse. The only rule the
//! workspace imposes (statically by the `lock-order` xtask rule,
//! dynamically by `wacs_sync`'s lockdep graph) is that every thread
//! nests labels in one global order — this model is the semantic
//! justification for that rule: consistent order is deadlock-free
//! across *all* interleavings, and a single inverted pair deadlocks.
//!
//! Deadlock detection is the explorer's wedge check: all threads
//! either done or waiting on a held lock, and not every thread done.

use crate::explore::{explore_bfs, Model, Report};

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LpState {
    /// Program counter per thread: `0..n` acquires, `n..2n` releases.
    pc: Vec<u8>,
    /// Lock owners by lock index.
    owner: Vec<Option<u8>>,
}

#[derive(Clone, Debug)]
pub struct LpStep {
    pub thread: usize,
    pub lock: usize,
    pub acquire: bool,
}

pub struct LockPairModel {
    /// Per-thread acquisition order (released in reverse).
    pub programs: Vec<Vec<usize>>,
    pub locks: usize,
}

impl LockPairModel {
    /// Both threads nest a -> b: the shipped discipline.
    pub fn smoke() -> Self {
        LockPairModel {
            programs: vec![vec![0, 1], vec![0, 1]],
            locks: 2,
        }
    }

    /// Three threads, three locks, one global order.
    pub fn deep() -> Self {
        LockPairModel {
            programs: vec![vec![0, 1, 2], vec![0, 1, 2], vec![1, 2], vec![0, 2]],
            locks: 3,
        }
    }

    /// The classic inversion: thread 1 nests b -> a.
    #[cfg(test)]
    fn inverted() -> Self {
        LockPairModel {
            programs: vec![vec![0, 1], vec![1, 0]],
            locks: 2,
        }
    }

    /// The step thread `t` would take in `s`, if any is enabled.
    fn step_of(&self, s: &LpState, t: usize) -> Option<LpStep> {
        let prog = &self.programs[t];
        let n = prog.len() as u8;
        let pc = s.pc[t];
        if pc < n {
            let lock = prog[pc as usize];
            // Acquire: enabled only when free.
            if s.owner[lock].is_none() {
                return Some(LpStep {
                    thread: t,
                    lock,
                    acquire: true,
                });
            }
            None
        } else if pc < 2 * n {
            let lock = prog[(2 * n - 1 - pc) as usize];
            Some(LpStep {
                thread: t,
                lock,
                acquire: false,
            })
        } else {
            None
        }
    }
}

impl Model for LockPairModel {
    type State = LpState;
    type Action = LpStep;

    fn name(&self) -> &'static str {
        "lockpair"
    }

    fn initial(&self) -> LpState {
        LpState {
            pc: vec![0; self.programs.len()],
            owner: vec![None; self.locks],
        }
    }

    fn actions(&self, s: &LpState, out: &mut Vec<LpStep>) {
        for t in 0..self.programs.len() {
            if let Some(step) = self.step_of(s, t) {
                out.push(step);
            }
        }
    }

    fn apply(&self, s: &LpState, a: &LpStep) -> LpState {
        let mut t = s.clone();
        t.pc[a.thread] += 1;
        t.owner[a.lock] = if a.acquire {
            Some(a.thread as u8)
        } else {
            None
        };
        t
    }

    fn invariant(&self, s: &LpState) -> Result<(), String> {
        // Mutual exclusion is structural here; check ownership sanity:
        // a lock is held iff its owner's pc is inside the hold window.
        for (l, o) in s.owner.iter().enumerate() {
            if let Some(t) = o {
                let prog = &self.programs[*t as usize];
                let n = prog.len() as u8;
                let pc = s.pc[*t as usize];
                let pos = prog.iter().position(|&x| x == l).map(|p| p as u8);
                let held = match pos {
                    Some(p) => pc > p && pc < 2 * n - p,
                    None => false,
                };
                if !held {
                    return Err(format!(
                        "lock {l} owned by thread {t} outside its hold window (pc {pc})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// A run may stop only when every thread ran to completion;
    /// otherwise a state with no enabled steps is a deadlock.
    fn accepting(&self, s: &LpState) -> bool {
        s.pc.iter()
            .zip(&self.programs)
            .all(|(pc, prog)| *pc == 2 * prog.len() as u8)
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        LockPairModel::deep()
    } else {
        LockPairModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_order_is_deadlock_free_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        let r = verify(true);
        assert!(r.ok(), "{r}");
    }

    #[test]
    fn bfs_gives_both_verdicts() {
        let clean = LockPairModel::smoke();
        assert!(explore_bfs(&clean, 2_000_000).ok());
        let bad = LockPairModel::inverted();
        assert!(explore_bfs(&bad, 2_000_000).violation.is_some());
    }

    #[test]
    fn checker_finds_the_abba_deadlock() {
        let r = explore_bfs(&LockPairModel::inverted(), 2_000_000);
        let cx = r.violation.expect("ABBA must deadlock");
        assert!(cx.reason.contains("wedge"), "{}", cx.reason);
        // Minimal wedge: each thread acquires its first lock.
        assert_eq!(cx.trace.len(), 2, "{:?}", cx.trace);
    }

    /// Fidelity: the runtime lockdep in `wacs_sync` flags the same
    /// inversion the model deadlocks on, and stays quiet on the
    /// order the model proves safe.
    #[test]
    fn runtime_lockdep_agrees_with_the_model() {
        use wacs_sync::{lock_order, OrderedMutex};

        let a = OrderedMutex::new("wc.pair.a", 0u8);
        let b = OrderedMutex::new("wc.pair.b", 0u8);
        // The safe discipline, twice: a -> b.
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
        assert!(
            lock_order::check_clean("wc.pair.").is_ok(),
            "consistent nesting must stay clean"
        );
        // The inversion the model deadlocks on: b -> a.
        let gb = b.lock();
        let ga = a.lock();
        drop(ga);
        drop(gb);
        let v = lock_order::violations_mentioning("wc.pair.");
        assert!(
            !v.is_empty(),
            "runtime lockdep must flag the inversion the model deadlocks on"
        );
    }
}
