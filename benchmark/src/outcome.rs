//! What one run of one workload produced, and how it is printed.

use crate::cells::{Cell, Round};
use crate::metrics::{self, Metric};
use crate::stats::Windowed;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Outcome {
    /// Metric name -> value with its sub-window spread and sample count.
    values: BTreeMap<&'static str, Windowed>,
    /// Lines for the reader only: the cells behind each role, aliases.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, by name.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric. Emitting a name the tables do not declare is a
    /// failure of the run, so the output cannot grow an undeclared key.
    pub fn set_windowed(&mut self, name: &'static str, w: Windowed) {
        let declared = metrics::is_declared(metrics::END_TO_END, name)
            || metrics::is_declared(metrics::PER_LAYER, name);
        if !declared {
            self.fail(format!("undeclared metric {name}"));
        } else if !w.value.is_finite() {
            self.fail(format!("{name} is not a finite number"));
        } else {
            self.values.insert(name, w);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_windowed(
            name,
            Windowed {
                value,
                ..Windowed::default()
            },
        );
    }

    /// The metrics recorded so far.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |w| w.value)
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }

    /// One verified operation outside any cell.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what.to_string());
        }
    }

    /// Fold a cell's operation counts in and keep a line about it.
    pub fn cell(&mut self, name: &str, cell: &Cell) {
        self.attempted += cell.attempted;
        self.failed += cell.failed;
        if cell.failed > 0 {
            self.failures.push(format!(
                "{name}: {} of {} ops failed",
                cell.failed, cell.attempted
            ));
        }
        let w = cell.us_per_op();
        let tail = match cell.all_us.is_empty() {
            true => String::new(),
            false => {
                let (q, v) = crate::stats::tail(&cell.all_us);
                format!(", p{} {v:.1} us", q * 100.0)
            }
        };
        self.notes.push(format!(
            "cell {name}: {:.3} us/op (unscaled {:.3}, spread {:.3}, {:.1} ops/s, n={}, measured {:.2} s{tail}) rounds {:.1?}",
            w.value,
            cell.unscaled_value(),
            w.iqr,
            cell.ops_per_s(),
            w.n,
            cell.measured_s,
            w.per,
        ));
    }

    /// A cell of one round (the traced pass), noted and returned.
    pub fn one_round(&mut self, name: &str, round: Round) -> Cell {
        let cell = Cell::of(round);
        self.cell(name, &cell);
        cell
    }

    /// The plain pass's result: the three gated cells and the CPU cost.
    pub fn roles(&mut self, a: Windowed, b: Windowed, c: Windowed, cpu: Windowed) {
        self.set_windowed("op_a_us", a);
        self.set_windowed("op_b_us", b);
        self.set_windowed("op_c_us", c);
        self.set_windowed("cpu_us_per_op", cpu);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One `metric` line per declared name, in declaration order.
    pub fn print(&self, table: &[Metric]) {
        for m in table {
            let w = self.values.get(m.name).cloned().unwrap_or_default();
            println!(
                "metric {} = {} {} (spread {:.4}, n={})",
                m.name, w.value, m.unit, w.iqr, w.n
            );
        }
    }

    /// The result object the driver reads from the last line.
    pub fn result_json(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.get(m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undeclared_or_broken_values_fail_the_run() {
        let mut o = Outcome::default();
        o.set("op_a_us", 12.5);
        assert!(o.correct());
        o.set("not_a_metric", 1.0);
        o.set("op_b_us", f64::NAN);
        assert_eq!(o.failed, 2);
        assert!(!o.correct());
        let json = o.result_json(metrics::END_TO_END);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2,"));
        assert!(json.contains("\"op_a_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(json.contains("\"op_b_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(!json.contains("not_a_metric"));
    }
}
