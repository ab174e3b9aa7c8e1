//! Optional human-readable event trace.
//!
//! The experiment harness regenerates the paper's architecture figures
//! (Figs. 2-4) as traces of the actual protocol steps; integration
//! tests assert on the step sequences.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Ring buffer of trace lines. Disabled by default: tracing formats
/// strings, which would distort large benchmark runs.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    lines: VecDeque<(SimTime, String)>,
    capacity: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            enabled: false,
            lines: VecDeque::new(),
            capacity: 65536,
        }
    }
}

impl Trace {
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn log(&mut self, at: SimTime, line: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back((at, line()));
    }

    pub fn lines(&self) -> impl Iterator<Item = &(SimTime, String)> {
        self.lines.iter()
    }

    /// All lines containing `needle`, in order.
    pub fn grep(&self, needle: &str) -> Vec<&str> {
        self.lines
            .iter()
            .filter(|(_, l)| l.contains(needle))
            .map(|(_, l)| l.as_str())
            .collect()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, l) in &self.lines {
            out.push_str(&format!("[{t}] {l}\n"));
        }
        out
    }

    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::default();
        tr.log(SimTime(1), || "x".into());
        assert_eq!(tr.lines().count(), 0);
    }

    #[test]
    fn enabled_trace_records_and_greps() {
        let mut tr = Trace::default();
        tr.enable();
        tr.log(SimTime(1), || "connect a->b".into());
        tr.log(SimTime(2), || "deliver b".into());
        assert_eq!(tr.lines().count(), 2);
        assert_eq!(tr.grep("connect"), vec!["connect a->b"]);
        assert!(tr.render().contains("deliver b"));
        tr.clear();
        assert_eq!(tr.lines().count(), 0);
    }
}
