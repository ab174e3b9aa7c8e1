//! The explicit-state exploration engine: [`explore_bfs`], breadth-first
//! over a [`Model`] with a visited set and a parent map. Exhaustive over
//! the reachable state space; when an invariant fails (or a
//! non-accepting state has no enabled actions — a wedge: deadlock or
//! lost wakeup), the reported counterexample trace is *minimal* in
//! actions by BFS order.
//!
//! A run is bounded by `max_states`; one that hits the bound reports
//! `exhausted: false` and the caller treats that as a failure (the
//! documented depths must fit).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// A finite-state model: a pure transition system plus its safety
/// properties.
pub trait Model {
    type State: Clone + Eq + Hash;
    type Action: Clone + fmt::Debug;

    fn name(&self) -> &'static str;
    fn initial(&self) -> Self::State;
    /// Enabled actions in `s`, pushed into `out` (cleared by caller).
    fn actions(&self, s: &Self::State, out: &mut Vec<Self::Action>);
    fn apply(&self, s: &Self::State, a: &Self::Action) -> Self::State;
    /// Safety property; `Err(reason)` is a violation.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;
    /// May a run legally stop here? A non-accepting state with no
    /// enabled actions is a wedge (deadlock / lost wakeup).
    fn accepting(&self, _s: &Self::State) -> bool {
        true
    }
}

/// A violation with its replayable action trace from the initial
/// state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub reason: String,
    pub trace: Vec<String>,
}

/// Outcome of one exploration.
#[derive(Debug, Clone)]
pub struct Report {
    pub model: &'static str,
    pub states: usize,
    pub transitions: usize,
    pub max_depth: usize,
    pub exhausted: bool,
    pub violation: Option<Counterexample>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.exhausted && self.violation.is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} states={} transitions={} depth={} {}",
            self.model,
            self.states,
            self.transitions,
            self.max_depth,
            match (&self.violation, self.exhausted) {
                (Some(v), _) => format!("VIOLATION: {}", v.reason),
                (None, false) => "INCOMPLETE (state bound hit)".to_string(),
                (None, true) => "ok: exhaustive, all invariants hold".to_string(),
            }
        )
    }
}

/// Breadth-first exhaustive exploration with minimal counterexamples.
pub fn explore_bfs<M: Model>(m: &M, max_states: usize) -> Report {
    let init = m.initial();
    let mut arena: Vec<M::State> = vec![init.clone()];
    let mut meta: Vec<(usize, String, usize)> = vec![(0, String::new(), 0)]; // parent, action, depth
    let mut index: HashMap<M::State, usize> = HashMap::new();
    index.insert(init, 0);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut transitions = 0usize;
    let mut max_depth = 0usize;
    let mut exhausted = true;
    let mut acts: Vec<M::Action> = Vec::new();

    while let Some(i) = queue.pop_front() {
        let s = arena[i].clone();
        let depth = meta[i].2;
        max_depth = max_depth.max(depth);
        if let Err(reason) = m.invariant(&s) {
            return finish(m, arena.len(), &meta, transitions, max_depth, i, reason);
        }
        acts.clear();
        m.actions(&s, &mut acts);
        if acts.is_empty() && !m.accepting(&s) {
            let reason = "wedge: no enabled actions in a non-accepting state \
                          (deadlock / lost wakeup)"
                .to_string();
            return finish(m, arena.len(), &meta, transitions, max_depth, i, reason);
        }
        for a in &acts {
            transitions += 1;
            let t = m.apply(&s, a);
            if index.contains_key(&t) {
                continue;
            }
            if arena.len() >= max_states {
                exhausted = false;
                continue;
            }
            let j = arena.len();
            arena.push(t.clone());
            meta.push((i, format!("{a:?}"), depth + 1));
            index.insert(t, j);
            queue.push_back(j);
        }
    }

    Report {
        model: m.name(),
        states: arena.len(),
        transitions,
        max_depth,
        exhausted,
        violation: None,
    }
}

/// The report for a violation at state `at`, its trace read back
/// through the parent map.
fn finish<M: Model>(
    m: &M,
    states: usize,
    meta: &[(usize, String, usize)],
    transitions: usize,
    max_depth: usize,
    at: usize,
    reason: String,
) -> Report {
    let mut trace = Vec::new();
    let mut i = at;
    while i != 0 {
        let (parent, action, _) = &meta[i];
        trace.push(action.clone());
        i = *parent;
    }
    trace.reverse();
    Report {
        model: m.name(),
        states,
        transitions,
        max_depth,
        exhausted: true,
        violation: Some(Counterexample { reason, trace }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent counters to a bound; invariant optionally
    /// broken at a target corner.
    struct TwoCounters {
        bound: u8,
        poison: Option<(u8, u8)>,
    }

    impl Model for TwoCounters {
        type State = (u8, u8);
        type Action = (&'static str, u8);

        fn name(&self) -> &'static str {
            "two-counters"
        }
        fn initial(&self) -> (u8, u8) {
            (0, 0)
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<(&'static str, u8)>) {
            if s.0 < self.bound {
                out.push(("incx", 0));
            }
            if s.1 < self.bound {
                out.push(("incy", 1));
            }
        }
        fn apply(&self, s: &(u8, u8), a: &(&'static str, u8)) -> (u8, u8) {
            if a.1 == 0 {
                (s.0 + 1, s.1)
            } else {
                (s.0, s.1 + 1)
            }
        }
        fn invariant(&self, s: &(u8, u8)) -> Result<(), String> {
            if self.poison == Some(*s) {
                Err(format!("poison state {s:?}"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn bfs_exhausts_the_grid() {
        let m = TwoCounters {
            bound: 4,
            poison: None,
        };
        let r = explore_bfs(&m, 10_000);
        assert!(r.ok(), "{r}");
        assert_eq!(r.states, 25); // (bound+1)^2
        assert_eq!(r.max_depth, 8);
    }

    #[test]
    fn bfs_counterexample_is_minimal() {
        let m = TwoCounters {
            bound: 4,
            poison: Some((2, 1)),
        };
        let r = explore_bfs(&m, 10_000);
        let cx = r.violation.expect("must find the poison state");
        assert_eq!(cx.trace.len(), 3, "{:?}", cx.trace);
        assert_eq!(
            cx.trace.iter().filter(|a| a.contains("incx")).count(),
            2,
            "{:?}",
            cx.trace
        );
    }

    #[test]
    fn state_bound_reports_incomplete() {
        let m = TwoCounters {
            bound: 40,
            poison: None,
        };
        let r = explore_bfs(&m, 100);
        assert!(!r.exhausted);
        assert!(!r.ok());
    }

    /// A model whose only terminal state is non-accepting: the wedge
    /// must be reported with its trace.
    struct Wedge;
    impl Model for Wedge {
        type State = u8;
        type Action = &'static str;
        fn name(&self) -> &'static str {
            "wedge"
        }
        fn initial(&self) -> u8 {
            0
        }
        fn actions(&self, s: &u8, out: &mut Vec<&'static str>) {
            if *s < 2 {
                out.push("step");
            }
        }
        fn apply(&self, s: &u8, _a: &&'static str) -> u8 {
            s + 1
        }
        fn invariant(&self, _s: &u8) -> Result<(), String> {
            Ok(())
        }
        fn accepting(&self, s: &u8) -> bool {
            *s != 2
        }
    }

    #[test]
    fn wedges_are_violations_with_traces() {
        let r = explore_bfs(&Wedge, 100);
        let cx = r.violation.expect("wedge must be reported");
        assert!(cx.reason.contains("wedge"));
        assert_eq!(cx.trace.len(), 2);
    }
}
