//! `cargo run -p xtask -- pairs FILE [--exclude-seed S]...`: the
//! verdict on a performance claim from its committed benchmark runs.
//!
//! FILE holds one run per line, `workload seed side op_a_us op_b_us
//! op_c_us cpu_us_per_op setup_s failed attempted`, side `parent` or
//! `change` (the `results/pr*_pairs.txt` format), optionally followed
//! by `name=value` fields: numbers a claim reads beside the end-to-end
//! metrics (a cell's unscaled time, its reference). `#` comments and
//! traced lines (workload `*-traced`) are skipped. A pair is the parent
//! and the change run of one workload and seed. For every workload and
//! metric, and every extra name that both runs of a pair carry, the
//! summary gives each side's median and quartiles (Python's
//! `statistics.quantiles`, exclusive method, as the benchmark computes
//! its spreads), the pairs the change won (lower is better for every
//! metric; ties count for neither side), the ratio of the medians, and
//! a verdict by the rule the project claims gains by, applied both
//! ways: `gain` when the change won at least nine tenths of the pairs
//! and its median is lower than the parent's by more than the parent's
//! interquartile distance, `worse` when it lost that many pairs and its
//! median is higher by that much, `no gain` otherwise. A claim's
//! "must not move" rows are read off the same table: none says `worse`.
//! Extra rows print after a workload's end-to-end rows, marked
//! `(extra, not end-to-end)`.

use std::fmt::Write as _;

/// The end-to-end metrics of a run line, in column order.
pub const METRICS: [&str; 5] = ["op_a_us", "op_b_us", "op_c_us", "cpu_us_per_op", "setup_s"];

/// One benchmark run.
#[derive(Debug, Clone)]
struct Run {
    values: [f64; 5],
    failed: u64,
    attempted: u64,
    /// The `name=value` fields, in line order.
    extra: Vec<(String, f64)>,
}

impl Run {
    fn extra(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let mut s = values.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = match n {
            0 => 0.0,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        };
        if n < 2 {
            return Spread {
                median,
                q1: median,
                q3: median,
            };
        }
        let at = |k: usize| {
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        };
        Spread {
            median,
            q1: at(1),
            q3: at(3),
        }
    }
}

/// One workload × metric of the summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// One of [`METRICS`], not an extra column.
    pub end_to_end: bool,
    pub parent: Spread,
    pub change: Spread,
    /// Pairs whose change run is lower than its parent run.
    pub won: usize,
    /// Pairs whose change run is higher than its parent run.
    pub lost: usize,
    pub pairs: usize,
}

/// What the pairs of one row say, lower being better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    NoGain,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoGain => "no gain",
            Verdict::Worse => "worse",
        }
    }
}

impl Row {
    /// Change median over parent median.
    pub fn ratio(&self) -> f64 {
        self.change.median / self.parent.median
    }

    /// The rule for claiming a gain, and its mirror image for a loss:
    /// nine tenths of the pairs one way, and the medians further apart
    /// that way than the parent's interquartile distance.
    pub fn verdict(&self) -> Verdict {
        let iqr = self.parent.q3 - self.parent.q1;
        let most = |n: usize| n * 10 >= self.pairs * 9;
        if most(self.won) && self.parent.median - self.change.median > iqr {
            Verdict::Gain
        } else if most(self.lost) && self.change.median - self.parent.median > iqr {
            Verdict::Worse
        } else {
            Verdict::NoGain
        }
    }
}

/// Failed and attempted operations per side, summed over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Failures {
    pub workload: String,
    pub parent: (u64, u64),
    pub change: (u64, u64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub rows: Vec<Row>,
    pub failures: Vec<Failures>,
}

/// Parse `text` into pairs, leave out the seeds in `exclude`, and
/// summarise each workload in the order it first appears.
pub fn summarise(text: &str, exclude: &[u64]) -> Result<Summary, String> {
    let mut pairs: Vec<(String, u64, [Option<Run>; 2])> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: {line}", n + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, seed, side, rest @ ..] = fields.as_slice() else {
            return Err(bad("too few fields"));
        };
        if workload.ends_with("-traced") {
            continue;
        }
        let Some((rest, extra)) = rest.split_at_checked(METRICS.len() + 2) else {
            return Err(bad("want 10 fields"));
        };
        let seed: u64 = seed.parse().map_err(|_| bad("bad seed"))?;
        if exclude.contains(&seed) {
            continue;
        }
        let side = match *side {
            "parent" => 0,
            "change" => 1,
            _ => return Err(bad("side is neither parent nor change")),
        };
        let mut values = [0.0; 5];
        for (v, field) in values.iter_mut().zip(rest) {
            *v = field.parse().map_err(|_| bad("bad metric value"))?;
        }
        let count = |field: &str| field.parse::<u64>().map_err(|_| bad("bad count"));
        let mut run = Run {
            values,
            failed: count(rest[5])?,
            attempted: count(rest[6])?,
            extra: Vec::new(),
        };
        for field in extra {
            let parsed = field
                .split_once('=')
                .filter(|(name, _)| !name.is_empty() && !METRICS.contains(name))
                .and_then(|(name, v)| Some((name, v.parse::<f64>().ok()?)));
            let Some((name, v)) = parsed.filter(|&(name, _)| run.extra(name).is_none()) else {
                return Err(bad(&format!(
                    "bad extra field `{field}`, want a new name=number"
                )));
            };
            run.extra.push((name.to_string(), v));
        }
        let at = match pairs
            .iter()
            .position(|(w, s, _)| w == workload && *s == seed)
        {
            Some(at) => at,
            None => {
                pairs.push(((*workload).to_string(), seed, [None, None]));
                pairs.len() - 1
            }
        };
        if pairs[at].2[side].replace(run).is_some() {
            return Err(bad("a second run of this side for this workload and seed"));
        }
    }

    let mut complete: Vec<(&str, &Run, &Run)> = Vec::new();
    for (workload, seed, runs) in &pairs {
        match runs {
            [Some(p), Some(c)] => complete.push((workload, p, c)),
            _ => return Err(format!("{workload} seed {seed} has no pair")),
        }
    }
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _, _) in &complete {
        if !workloads.contains(w) {
            workloads.push(w);
        }
    }

    let mut summary = Summary {
        rows: Vec::new(),
        failures: Vec::new(),
    };
    for workload in workloads {
        let runs: Vec<(&Run, &Run)> = complete
            .iter()
            .filter(|(w, _, _)| *w == workload)
            .map(|&(_, p, c)| (p, c))
            .collect();
        let row = |metric: &str, value: &dyn Fn(&Run) -> Option<f64>| {
            let (parent, change): (Vec<f64>, Vec<f64>) = runs
                .iter()
                .filter_map(|(p, c)| Some((value(p)?, value(c)?)))
                .unzip();
            Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                end_to_end: METRICS.contains(&metric),
                parent: Spread::of(&parent),
                change: Spread::of(&change),
                won: parent.iter().zip(&change).filter(|(p, c)| c < p).count(),
                lost: parent.iter().zip(&change).filter(|(p, c)| c > p).count(),
                pairs: parent.len(),
            }
        };
        for (m, metric) in METRICS.iter().enumerate() {
            summary.rows.push(row(metric, &|r| Some(r.values[m])));
        }
        let mut names: Vec<&str> = Vec::new();
        for (name, _) in runs
            .iter()
            .flat_map(|(p, c)| p.extra.iter().chain(&c.extra))
        {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        for name in names {
            let extra = row(name, &|r| r.extra(name));
            if extra.pairs > 0 {
                summary.rows.push(extra);
            }
        }
        let sum = |side: usize| {
            runs.iter()
                .map(|&(p, c)| [p, c][side])
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
        };
        summary.failures.push(Failures {
            workload: workload.to_string(),
            parent: sum(0),
            change: sum(1),
        });
    }
    Ok(summary)
}

/// Enough digits for microseconds and for seconds of set-up alike.
fn num(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The summary as printed: one header per workload, one line per metric.
pub fn render(summary: &Summary) -> String {
    let mut out = String::new();
    for f in &summary.failures {
        let _ = writeln!(
            out,
            "{} (failed: parent {} of {}, change {} of {})",
            f.workload, f.parent.0, f.parent.1, f.change.0, f.change.1
        );
        for r in summary.rows.iter().filter(|r| r.workload == f.workload) {
            let side = |s: &Spread| format!("{} [{}, {}]", num(s.median), num(s.q1), num(s.q3));
            let _ = writeln!(
                out,
                "  {:<15} parent {:<26} change {:<26} won {:>2}/{:<2} ratio {:.3}  {}{}",
                r.metric,
                side(&r.parent),
                side(&r.change),
                r.won,
                r.pairs,
                r.ratio(),
                r.verdict().label(),
                if r.end_to_end {
                    ""
                } else {
                    "  (extra, not end-to-end)"
                }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        let s = Spread::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(
            s,
            Spread {
                median: 5.5,
                q1: 2.75,
                q3: 8.25
            }
        );
    }

    #[test]
    fn committed_stripe_pairs_show_the_claimed_gain() {
        let path = crate::workspace_root().join("results/pr25_stripe_pairs.txt");
        let text = std::fs::read_to_string(path).unwrap();
        let summary = summarise(&text, &[7]).unwrap();
        let row = |workload: &str, metric: &str| {
            summary
                .rows
                .iter()
                .find(|r| r.workload == workload && r.metric == metric)
                .unwrap()
                .clone()
        };
        let c = row("bulk", "op_c_us");
        assert_eq!(c.parent.median.round(), 4667.0);
        assert_eq!(c.change.median.round(), 3097.0);
        assert_eq!((c.won, c.pairs), (10, 10));
        assert_eq!(c.verdict(), Verdict::Gain);
        assert_eq!(row("bulk", "op_a_us").verdict(), Verdict::NoGain);
        // Every workload of the file, five pairs each off `bulk`.
        let workloads: Vec<_> = summary.failures.iter().map(|f| &f.workload).collect();
        assert_eq!(workloads, ["bulk", "echo", "churn", "mpi_app"]);
        assert_eq!(row("churn", "op_a_us").pairs, 10);
        assert_eq!(row("echo", "op_a_us").pairs, 5);
        assert!(summary
            .failures
            .iter()
            .all(|f| f.parent.0 == 0 && f.change.0 == 0));
        // The development seed makes an eleventh bulk pair.
        assert_eq!(summarise(&text, &[]).unwrap().rows[0].pairs, 11);
        assert!(render(&summary).contains("op_c_us"));
    }

    #[test]
    fn malformed_and_unpaired_lines_are_errors() {
        let ok = "bulk 1 parent 1 2 3 4 0.5 0 10\nbulk 1 change 1 2 3 4 0.5 0 10\n";
        assert!(summarise(ok, &[]).is_ok());
        assert!(summarise("bulk 1 parent 1 2 3 4 0.5 0 10\n", &[]).is_err());
        assert!(summarise(&format!("{ok}bulk 1 change 1 2 3 4 0.5 0 10\n"), &[]).is_err());
        assert!(summarise("bulk 1 parent 1 2 3\n", &[]).is_err());
        assert!(summarise("bulk 1 other 1 2 3 4 0.5 0 10\n", &[]).is_err());
        // Comments, traced lines and excluded seeds are skipped.
        let skipped =
            format!("# note\nbulk-traced 2 parent out1 7\n{ok}bulk 3 parent 1 2 3 4 0.5 0 10\n");
        assert_eq!(summarise(&skipped, &[3]).unwrap().rows[0].pairs, 1);
    }

    #[test]
    fn extra_columns_are_rows_of_their_own() {
        let mut text = String::from("# workload seed side ...\n");
        for seed in 0..10 {
            let p = 100.0 + f64::from(seed);
            text += &format!(
                "mpi_app {seed} parent 20 {p} 1 1 0.5 0 10 alone_us={p} unscaled={}\n",
                2.0 * p
            );
            text += &format!(
                "mpi_app {seed} change 20 {} 1 1 0.5 0 10 unscaled={p} alone_us={p}\n",
                p - 10.0
            );
        }
        // A name only one side of a pair carries is no pair.
        text += "echo 1 parent 1 2 3 4 0.5 0 10 x=1\necho 1 change 1 2 3 4 0.5 0 10\n";
        let summary = summarise(&text, &[]).unwrap();
        let rows: Vec<(&str, &str, bool, usize, Verdict)> = summary
            .rows
            .iter()
            .map(|r| {
                (
                    r.workload.as_str(),
                    r.metric.as_str(),
                    r.end_to_end,
                    r.pairs,
                    r.verdict(),
                )
            })
            .collect();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[1], ("mpi_app", "op_b_us", true, 10, Verdict::Gain));
        assert_eq!(rows[5], ("mpi_app", "alone_us", false, 10, Verdict::NoGain));
        assert_eq!(rows[6], ("mpi_app", "unscaled", false, 10, Verdict::Gain));
        assert!(rows[7..].iter().all(|r| r.0 == "echo" && r.2));
        let printed = render(&summary);
        let line = printed.lines().find(|l| l.contains("alone_us")).unwrap();
        assert!(line.ends_with("no gain  (extra, not end-to-end)"), "{line}");
        assert!(printed.lines().nth(2).unwrap().ends_with("gain"));
    }

    #[test]
    fn malformed_extra_fields_are_errors() {
        let line = |extra: &str| {
            format!("bulk 1 parent 1 2 3 4 0.5 0 10 {extra}\nbulk 1 change 1 2 3 4 0.5 0 10\n")
        };
        assert!(summarise(&line("alone_us=3.5"), &[]).is_ok());
        for bad in [
            "alone_us",
            "alone_us=",
            "=3",
            "alone_us=fast",
            "op_b_us=1",
            "a=1 a=2",
        ] {
            let err = summarise(&line(bad), &[]).unwrap_err();
            assert!(err.starts_with("line 1: bad extra field"), "{bad}: {err}");
        }
    }

    /// Ten pairs of one workload: parent `op_a_us` 100..=109, change
    /// `change(parent)`; the other metrics equal on both sides.
    fn ten_pairs(change: impl Fn(f64) -> f64) -> Summary {
        let mut text = String::new();
        for seed in 0..10 {
            let p = 100.0 + f64::from(seed);
            text += &format!("echo {seed} parent {p} 1 1 1 0.5 0 10\n");
            text += &format!("echo {seed} change {} 1 1 1 0.5 0 10\n", change(p));
        }
        summarise(&text, &[]).unwrap()
    }

    fn verdict(change: impl Fn(f64) -> f64) -> Verdict {
        ten_pairs(change).rows[0].verdict()
    }

    #[test]
    fn verdicts_need_nine_tenths_and_more_than_the_parent_iqr() {
        // The parent's quartiles are 101.75 and 107.25: an IQR of 5.5.
        assert_eq!(verdict(|p| p - 10.0), Verdict::Gain);
        assert_eq!(verdict(|p| p + 10.0), Verdict::Worse);
        // Every pair one way, but by less than the IQR.
        assert_eq!(verdict(|p| p - 1.0), Verdict::NoGain);
        assert_eq!(verdict(|p| p + 1.0), Verdict::NoGain);
        assert_eq!(verdict(|p| p), Verdict::NoGain);
        // Nine pairs of ten one way are enough; eight are not.
        let flip = |k: f64, by: f64| move |p: f64| if p < 100.0 + k { p - by } else { p + by };
        assert_eq!(verdict(flip(1.0, -10.0)), Verdict::Gain);
        assert_eq!(verdict(flip(2.0, -10.0)), Verdict::NoGain);
        assert_eq!(verdict(flip(1.0, 10.0)), Verdict::Worse);
        assert_eq!(verdict(flip(2.0, 10.0)), Verdict::NoGain);
        let printed = render(&ten_pairs(|p| p + 10.0));
        assert!(printed.lines().nth(1).unwrap().ends_with("worse"));
        assert!(printed.lines().nth(2).unwrap().ends_with("no gain"));
    }
}
